"""Bench: Fig. 14 — intra-protocol fairness (two same-CCA flows)."""

from repro.experiments.fairness import run_intra

from conftest import run_once

CCAS = ("cubic", "bbr", "copa", "aurora", "proteus", "orca",
        "c-libra", "b-libra")


def test_fig14_intra_protocol(benchmark, scale, capsys):
    data = run_once(benchmark, run_intra, ccas=CCAS,
                    seeds=scale["seeds"][:2] or (1,),
                    duration=scale["duration"] * 3)
    with capsys.disabled():
        print("\nFig.14 intra-protocol fairness (flow shares / jain):")
        for cca, m in data.items():
            print(f"  {cca:10s} {m['flow1_share']:.2f}/{m['flow2_share']:.2f} "
                  f"jain={m['jain']:.3f}")
    # Shape: Libra's intra-protocol Jain index is high (paper: ~0.99).
    assert data["c-libra"]["jain"] > 0.85
    assert data["b-libra"]["jain"] > 0.85
