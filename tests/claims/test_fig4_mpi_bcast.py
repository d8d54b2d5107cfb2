"""Bench: Figure 4 — MPI-level broadcast latency and improvement."""


def test_fig4_mpi_bcast(quick_figure):
    # The quick grid: the same four sizes at 6 iterations per point.
    result = quick_figure("fig4")
    print()
    print(result.render())

    f16 = result.get("factor-16")
    # NIC-based MPI_Bcast wins at every size on 16 ranks.
    assert all(y > 1.1 for y in f16.ys())
    # Paper: up to 2.02x at 8 KB (we land 1.5-1.9, compressed by the
    # per-call MPI constants; see EXPERIMENTS.md).
    assert 1.35 < f16.y_at(8192) < 2.2
    # Trend mirrors the GM level: factor grows toward 8 KB.
    assert f16.y_at(8192) > f16.y_at(4)
    # Factor grows with the communicator size.
    assert (
        result.get("factor-4").y_at(8192)
        < result.get("factor-8").y_at(8192)
        < f16.y_at(8192)
    )
    # Latencies monotone in message size.
    for label in ("HB-16", "NB-16"):
        ys = result.get(label).ys()
        assert ys == sorted(ys)
