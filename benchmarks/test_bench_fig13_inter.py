"""Bench: Fig. 13 — inter-protocol fairness against CUBIC."""

from repro.experiments.fairness import run_inter

from conftest import run_once

CCAS = ("cubic", "bbr", "copa", "aurora", "proteus", "orca",
        "c-libra", "b-libra")


def test_fig13_inter_protocol(benchmark, scale, capsys):
    data = run_once(benchmark, run_inter, ccas=CCAS,
                    seeds=scale["seeds"][:2] or (1,),
                    duration=scale["duration"] * 3)
    with capsys.disabled():
        print("\nFig.13 inter-protocol fairness vs CUBIC (share / jain):")
        for cca, m in data.items():
            print(f"  {cca:10s} {m['cca_share']:.2f}/{m['cubic_share']:.2f} "
                  f"jain={m['jain']:.3f}")
    # Shape: Libra neither starves CUBIC nor gets starved (Remark 6 —
    # the goal is avoiding starvation, not perfect equality; B-Libra
    # inherits a share of BBR's well-known aggression against
    # loss-based flows at 1 BDP).
    for libra in ("c-libra", "b-libra"):
        assert 0.15 < data[libra]["cca_share"] < 0.85
        assert data[libra]["jain"] > 0.7
    assert data["c-libra"]["jain"] > 0.9
