"""Bench: Figure 3 — NIC-based multisend vs host-based unicasts.

Regenerates the latency and improvement-factor series for 3/4/8
destinations and asserts the paper's shape: ~2× improvement for small
messages to 4 destinations, decaying to ~1 at 16 KB.
"""


def test_fig3_multisend(quick_figure):
    result = quick_figure("fig3")
    print()
    print(result.render())

    factor4 = result.get("factor-4dest")
    # Paper: up to 2.05x for <=128 B to 4 destinations.
    assert 1.7 < factor4.y_at(1) < 2.4
    # Paper: decays with size...
    assert factor4.y_at(1) > factor4.y_at(512) > factor4.y_at(16384) - 0.2
    # ...and levels off around/just below 1 at 16 KB.
    assert 0.85 < factor4.y_at(16384) < 1.1

    # More destinations -> more repeated processing saved (small msgs).
    f3, f8 = result.get("factor-3dest"), result.get("factor-8dest")
    assert f3.y_at(1) < factor4.y_at(1) < f8.y_at(1)

    # Latency curves are monotone in size for every scheme.
    for label in ("HB-4", "NB-4"):
        ys = result.get(label).ys()
        assert ys == sorted(ys)
