"""Bench: Figure 6 — host CPU time in MPI_Bcast under process skew."""


def test_fig6_skew(quick_figure):
    result = quick_figure("fig6")
    print()
    print(result.render())

    hb = result.get("HB-4B")
    nb = result.get("NB-4B")
    factor = result.get("factor-4B")
    xs = sorted(hb.xs())

    # Paper Fig. 6a: host-based CPU time grows once skew exceeds ~40 us.
    assert hb.y_at(xs[-1]) > 2 * hb.y_at(xs[0])
    # NIC-based CPU time does NOT grow — it falls toward its floor.
    assert nb.y_at(xs[-1]) <= nb.y_at(xs[0]) * 1.2
    # The improvement factor grows with skew (paper: up to 5.82; our
    # simulated MPI floor is lower, so the ceiling is higher).
    factor_ys = [factor.y_at(x) for x in xs]
    assert factor_ys == sorted(factor_ys)
    assert factor_ys[-1] > 4.0
