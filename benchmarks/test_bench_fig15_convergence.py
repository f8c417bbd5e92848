"""Bench: Fig. 15 / Tab. 5 — convergence of three staggered flows."""

from repro.experiments.convergence import run_fig15, run_tab5

from conftest import run_once

CCAS = ("bbr", "cubic", "indigo", "proteus", "orca", "modified-rl",
        "c-libra", "b-libra")


def test_fig15_tab5_convergence(benchmark, scale, capsys):
    duration = max(scale["duration"] * 4, 32.0)
    fig15 = run_once(benchmark, run_fig15, ccas=CCAS, seed=1,
                     duration=duration)
    tab5 = run_tab5(fig15, duration=duration)
    with capsys.disabled():
        print("\nTab.5 convergence of the 3rd flow "
              "(conv. time / deviation / avg thr):")
        for cca, stats in tab5.items():
            conv = stats["convergence_time"]
            conv_s = f"{conv:5.1f}s" if conv is not None else "    - "
            dev = stats["stability"]
            dev_s = f"{dev:5.2f}" if dev is not None else "   - "
            avg = stats["avg_throughput"]
            avg_s = f"{avg:5.1f}" if avg is not None else "   - "
            print(f"  {cca:12s} {conv_s} {dev_s} {avg_s}")
    # Shape: Libra converges (finite convergence time) and its third
    # flow gets a meaningful share.
    for libra in ("c-libra", "b-libra"):
        stats = tab5[libra]
        assert stats["convergence_time"] is not None
        assert stats["avg_throughput"] > 48.0 / 3.0 * 0.4
