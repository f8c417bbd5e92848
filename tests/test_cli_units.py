"""Tests for the CLI entry point, unit helpers, and the env bridge."""

import re

import pytest

from repro.__main__ import main
from repro.env.bridge import measurement_from_report
from repro.simnet.packet import IntervalReport
from repro.units import (bdp_bytes, bits_to_bytes, bytes_to_bits, mbps, ms,
                         to_mbps, to_ms)


class TestUnits:
    def test_mbps_roundtrip(self):
        assert to_mbps(mbps(48.0)) == pytest.approx(48.0)

    def test_ms_roundtrip(self):
        assert to_ms(ms(30.0)) == pytest.approx(30.0)

    def test_bits_bytes(self):
        assert bytes_to_bits(100) == 800
        assert bits_to_bytes(800) == 100

    def test_bdp(self):
        # 48 Mbps * 100 ms = 600 KB
        assert bdp_bytes(mbps(48), ms(100)) == pytest.approx(600_000)


class TestBridge:
    def test_measurement_fields(self):
        report = IntervalReport(now=1.0, duration=0.1, throughput=10e6,
                                send_rate=12e6, avg_rtt=0.06, min_rtt=0.05,
                                rtt_gradient=0.1, loss_rate=0.02,
                                acked_packets=50, lost_packets=1,
                                sent_packets=51)
        m = measurement_from_report(report, rate_bps=15e6, min_rtt=0.05)
        assert m.throughput == 10e6
        assert m.rate == 15e6
        assert m.loss_rate == 0.02
        assert m.ack_gap_ewma == pytest.approx(0.1 / 50)

    def test_zero_ack_fallbacks(self):
        report = IntervalReport(now=1.0, duration=0.1, throughput=0.0,
                                send_rate=0.0, avg_rtt=0.0, min_rtt=0.0,
                                rtt_gradient=0.0, loss_rate=0.0,
                                acked_packets=0, lost_packets=0,
                                sent_packets=0)
        m = measurement_from_report(report, rate_bps=1e6, min_rtt=0.05)
        assert m.avg_rtt == 0.05  # falls back to min_rtt


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "c-libra" in out and "fig7" in out

    def test_run_single_flow(self, capsys):
        code = main(["run", "cubic", "--bw", "12", "--rtt", "30",
                     "--duration", "3"])
        assert code == 0
        assert "throughput=" in capsys.readouterr().out

    def test_run_with_codel(self, capsys):
        code = main(["run", "cubic", "--bw", "12", "--rtt", "30",
                     "--duration", "3", "--aqm", "codel"])
        assert code == 0

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_listed_commands_match_the_parser(self, capsys):
        assert main(["list"]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("Commands:"))
        listed = set(line.removeprefix("Commands:").strip().split(", "))
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        parsed = set(re.search(r"\{([\w,-]+)\}", usage).group(1).split(","))
        assert listed == parsed
        for cmd in sorted(listed):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0, cmd

    def test_unknown_command_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
