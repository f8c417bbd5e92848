"""Bench: Fig. 7 — throughput/delay over four wired + four cellular traces."""

from repro.experiments.adaptability import format_fig7, run_fig7

from conftest import run_once

CCAS = ("cubic", "bbr", "copa", "sprout", "remy", "indigo", "aurora",
        "vivace", "proteus", "orca", "modified-rl", "cl-libra",
        "c-libra", "b-libra")


def test_fig7_scatter(benchmark, scale, capsys):
    data = run_once(benchmark, run_fig7, ccas=CCAS,
                    seeds=scale["seeds"][:1], duration=scale["duration"])
    with capsys.disabled():
        print()
        print(format_fig7(data))
    wired = data["wired"]
    # Shape: C-Libra holds near-CUBIC throughput at lower delay (Pareto).
    assert wired["c-libra"]["normalized_throughput"] > \
        0.85 * wired["cubic"]["normalized_throughput"]
    assert wired["c-libra"]["avg_delay_ms"] < wired["cubic"]["avg_delay_ms"]
