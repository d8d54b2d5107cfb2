"""Bench: Figure 7 — skew-tolerance improvement vs system size."""


def test_fig7_skew_scaling(quick_figure):
    # The quick grid: 4 and 16 nodes at 10 iterations per point.
    result = quick_figure("fig7")
    print()
    print(result.render())

    for label in ("factor-4B", "factor-4096B"):
        series = result.get(label)
        ys = [series.y_at(x) for x in sorted(series.xs())]
        # Paper: "the improvement factor becomes greater as the system
        # size increases for a fixed amount of process skew".
        assert ys[-1] > ys[0], label
        assert all(y > 1.0 for y in ys), label
    # Small messages benefit more than 4 KB ones (paper: 5.82 vs 2.9).
    assert (
        result.get("factor-4B").y_at(16)
        > result.get("factor-4096B").y_at(16)
    )
