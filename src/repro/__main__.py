"""Command-line entry point: run experiments, single flows, or real traffic.

Usage:
    python -m repro list                       # CCAs, experiments, commands
    python -m repro run c-libra --bw 48 --rtt 100 --duration 20
    python -m repro trace c-libra --lte stationary --out trace.jsonl
    python -m repro experiment fig7            # print a paper artifact
    python -m repro experiment fig9 --jobs 4   # parallel + cached sweep
    python -m repro train libra --workers 2 --iterations 30 \\
        --checkpoint-every 10                  # parallel, resumable training
    python -m repro train --verify-assets      # bundled-policy integrity
    python -m repro serve --port 9000          # reliable-UDP receive endpoint
    python -m repro send 127.0.0.1:9000 --cca libra:cubic --bytes 1048576 \\
        --loss 0.02 --delay 20                 # real-socket transfer
    python -m repro chaos --seed 1             # chaos-test the serving path
    python -m repro experiment soak            # full chaos suite as a table
    python -m repro run c-libra --sanitize     # run with invariant checks on
    python -m repro replay failure-….json      # re-execute a captured failure
    python -m repro diff --cca c-libra --scenario wired-48 # differential oracle
"""

from __future__ import annotations

import argparse
import sys

EXPERIMENT_MODULES = {
    "fig1": "adaptability", "fig7": "adaptability", "fig8": "adaptability",
    "fig2a": "practical_issues", "fig2b": "practical_issues",
    "fig2c": "overhead", "fig12": "overhead",
    "fig5": "rl_ablation", "fig6": "rl_ablation", "tab2": "rl_ablation",
    "tab3": "rl_ablation", "tab4": "rl_ablation",
    "fig9": "sweeps", "fig10": "sweeps",
    "fig11": "flexibility",
    "fig13": "fairness", "fig14": "fairness",
    "fig15": "convergence", "tab5": "convergence",
    "tab6": "safety",
    "fig16": "internet",
    "fig17": "deep_dive", "fig18": "deep_dive",
    "fig19": "sensitivity", "tab7": "sensitivity",
    "ablations": "ablations",
    "stress": "stress",
    "soak": "soak",
    "scale": "scale",
}


#: every subcommand with a one-line purpose — ``repro list`` prints this
#: registry surface so operational tooling can discover the CLI without
#: parsing argparse help text
COMMANDS = {
    "list": "list CCAs, experiments and commands",
    "run": "run one flow through a simulated bottleneck",
    "trace": "run one traced flow and inspect/export its telemetry",
    "experiment": "print one paper artifact",
    "train": "train a policy (parallel, checkpointed, eval-gated)",
    "serve": "reliable-UDP receive endpoint (real sockets)",
    "send": "reliable-UDP transfer driven by a CCA (real sockets)",
    "chaos": "run seeded fault scenarios against a real netio server",
    "replay": "re-execute a captured failure bundle with sanitizers on",
    "diff": "run one job under two configurations and diff the metrics",
}


def cmd_list(_args) -> int:
    from .registry import available_ccas

    from .scenarios.presets import named_presets

    print("CCAs:", ", ".join(available_ccas()))
    print("Experiments:", ", ".join(sorted(set(EXPERIMENT_MODULES))))
    print("Scenarios:", ", ".join(sorted(named_presets())))
    print("Commands:", ", ".join(sorted(COMMANDS)))
    return 0


def _build_single_flow(args, recorder=None):
    """Shared ``run``/``trace`` setup: one flow through one bottleneck."""
    from .registry import make_controller
    from .simnet.network import Dumbbell
    from .simnet.trace import lte_trace, wired_trace

    if args.lte:
        trace = lte_trace(args.lte, seed=args.seed)
    else:
        trace = wired_trace(args.bw)
    rtt = args.rtt / 1000.0
    buffer_bytes = args.buffer * 1000 if args.buffer else \
        max(args.bw * 1e6 * rtt / 8.0, 30_000)
    net = Dumbbell(trace, buffer_bytes=buffer_bytes, rtt=rtt,
                   loss_rate=args.loss, seed=args.seed, aqm=args.aqm,
                   recorder=recorder)
    net.add_flow(make_controller(args.cca, seed=args.seed))
    return net


def _print_headline(args, result) -> None:
    flow = result.flows[0]
    print(f"{args.cca}: throughput={flow.throughput_mbps:.2f} Mbps "
          f"(util {result.utilization:.1%}), avg RTT={flow.avg_rtt_ms:.1f} ms, "
          f"loss={flow.loss_rate:.2%}")


def _make_sanitizer(args):
    """``--sanitize`` support: a fresh sanitizer, or ``None`` when off."""
    from .sanitize import SimSanitizer

    return SimSanitizer() if getattr(args, "sanitize", False) else None


def _print_sanitizer(sanitizer) -> None:
    if sanitizer is not None:
        print(f"sanitize: {sanitizer.audits} audits, "
              f"{sanitizer.checks} checks, "
              f"{sanitizer.violations} violations")


def cmd_run(args) -> int:
    from .sanitize import activate

    sanitizer = _make_sanitizer(args)
    with activate(sanitizer):
        result = _build_single_flow(args).run(args.duration)
    _print_headline(args, result)
    _print_sanitizer(sanitizer)
    return 0


def cmd_trace(args) -> int:
    """Run one traced flow, pretty-print the trace, optionally export it."""
    from .sanitize import activate
    from .telemetry import (Recorder, format_summary, write_csv, write_jsonl)

    recorder = Recorder()
    sanitizer = _make_sanitizer(args)
    with activate(sanitizer):
        result = _build_single_flow(args, recorder=recorder).run(args.duration)
    _print_sanitizer(sanitizer)
    telemetry = result.telemetry
    _print_headline(args, result)
    if args.out:
        if args.format == "csv":
            records = write_csv(telemetry, args.out)
        else:
            records = write_jsonl(telemetry, args.out)
        print(f"wrote {records} {args.format} records to {args.out}")
    print(format_summary(telemetry, tail=args.tail))
    return 0


def cmd_experiment(args) -> int:
    import importlib

    module_name = EXPERIMENT_MODULES.get(args.name)
    if module_name is None:
        print(f"unknown experiment {args.name!r}; "
              f"try one of {sorted(set(EXPERIMENT_MODULES))}", file=sys.stderr)
        return 2
    if args.jobs < 0:
        print("--jobs must be >= 0 (1 = serial, 0 = one worker per CPU)",
              file=sys.stderr)
        return 2
    from . import parallel

    parallel.set_execution_config(
        jobs=args.jobs, cache=not args.no_cache, cache_dir=args.cache_dir,
        timeout=args.timeout, progress=not args.quiet)
    module = importlib.import_module(f"repro.experiments.{module_name}")
    module.main()
    return 0


def cmd_train(args) -> int:
    from .assets import POLICY_KINDS

    if args.verify_assets:
        from .assets import verify_assets

        rows = verify_assets(args.assets_dir)
        width = max(len(row["kind"]) for row in rows)
        bad = 0
        for row in rows:
            line = f"{row['kind']:<{width}}  {row['status']}"
            if row["detail"]:
                line += f"  ({row['detail']})"
            print(line)
            bad += row["status"] != "ok"
        return 1 if bad else 0

    if not args.kind and not args.all:
        print("specify a policy kind, --all, or --verify-assets "
              f"(kinds: {', '.join(POLICY_KINDS)})", file=sys.stderr)
        return 2
    kinds = list(POLICY_KINDS) if args.all else [args.kind]
    unknown = [k for k in kinds if k not in POLICY_KINDS]
    if unknown:
        print(f"unknown policy kind {unknown[0]!r}; "
              f"choose from {', '.join(POLICY_KINDS)}", file=sys.stderr)
        return 2
    if args.all and (args.resume or args.checkpoint_dir or args.save or
                     args.log):
        print("--all cannot be combined with --resume/--checkpoint-dir/"
              "--save/--log (they name per-run files)", file=sys.stderr)
        return 2

    import os

    from .train import GateConfig, TrainRunConfig, train_run

    try:
        hidden = tuple(int(h) for h in args.hidden.split(","))
        gate_seeds = tuple(int(s) for s in args.gate_seeds.split(","))
    except ValueError:
        print("--hidden and --gate-seeds take comma-separated integers",
              file=sys.stderr)
        return 2

    status = 0
    for kind in kinds:
        checkpoint_dir = args.checkpoint_dir
        if checkpoint_dir is None and (args.checkpoint_every > 0 or
                                       args.resume):
            checkpoint_dir = os.path.join("checkpoints", kind)
        config = TrainRunConfig(
            kind=kind, iterations=args.iterations, workers=args.workers,
            steps_per_iteration=args.steps, seed=args.seed, hidden=hidden,
            episode_steps=args.episode_steps, backend=args.backend,
            timeout=args.timeout, checkpoint_dir=checkpoint_dir,
            checkpoint_every=args.checkpoint_every, resume=args.resume,
            log_path=args.log, promote=args.promote,
            assets_dir=args.assets_dir,
            gate=GateConfig(seeds=gate_seeds, duration=args.gate_duration),
            verbose=not args.quiet)
        result = train_run(config)
        rewards = result.history.episode_rewards
        tail = rewards[-20:]
        summary = (f"{kind}: {result.iterations_run} iterations, "
                   f"{len(rewards)} episodes")
        if tail:
            import numpy as np

            summary += f", final avg reward {np.mean(tail):.3f}"
        print(summary)
        if args.save:
            result.policy.save(args.save)
            print(f"wrote weights to {args.save}")
        if result.checkpoints:
            print(f"latest checkpoint: {result.checkpoints[-1]}")
        if result.promotion is not None and not result.promotion.promoted:
            status = 1
    return status


def cmd_serve(args) -> int:
    """Run the reliable-UDP receive endpoint until signalled (or --one).

    SIGTERM/SIGINT trigger a graceful drain: new SYNs are refused with
    an RST, in-flight transfers get up to ``--drain-deadline`` seconds
    to finish, stragglers are force-reset, telemetry is flushed.
    """
    import asyncio
    import json
    import signal

    from .netio import NetioServer, ServerLimits
    from .telemetry import Recorder, write_jsonl

    try:
        limits = ServerLimits(max_sessions=args.max_sessions,
                              idle_timeout=args.idle_timeout,
                              session_buffer_bytes=args.buffer_cap,
                              drain_deadline=args.drain_deadline)
    except ValueError as exc:
        print(f"bad server limits: {exc}", file=sys.stderr)
        return 2

    def emit(stats) -> None:
        if args.json:
            print(json.dumps(stats.summary(), sort_keys=True), flush=True)

    async def serve() -> int:
        recorder = Recorder() if args.out else None
        server = NetioServer(host=args.host, port=args.port,
                             verbose=not args.quiet, limits=limits,
                             recorder=recorder)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:    # non-unix event loop
                pass
        host, port = await server.start()
        # The listening line doubles as the "safe to signal" marker for
        # supervisors, so the handlers above must already be installed.
        print(f"netio: listening on {host}:{port}", flush=True)
        stop_wait = asyncio.ensure_future(stop.wait())
        try:
            while True:
                next_stats = asyncio.ensure_future(server.serve_one())
                done, _ = await asyncio.wait(
                    {next_stats, stop_wait},
                    return_when=asyncio.FIRST_COMPLETED)
                if next_stats in done:
                    stats = next_stats.result()
                    emit(stats)
                    if args.one:
                        return 0 if stats.complete else 1
                else:
                    next_stats.cancel()
                    break
            report = await server.drain()
            for stats in server.drain_completed():
                emit(stats)
            if not args.quiet:
                print(f"netio: drained in {report['waited_s']}s "
                      f"({report['forced']} session(s) force-reset)",
                      flush=True)
            if args.out and server.telemetry is not None:
                records = write_jsonl(server.telemetry, args.out)
                print(f"wrote {records} telemetry records to {args.out}",
                      flush=True)
            return 0
        finally:
            stop_wait.cancel()
            await server.close()

    from .sanitize import activate

    try:
        with activate(_make_sanitizer(args)):
            return asyncio.run(serve())
    except KeyboardInterrupt:
        return 0


def cmd_send(args) -> int:
    """Transfer a payload to a ``repro serve`` endpoint over real sockets."""
    import asyncio
    import json

    from .netio import (ImpairmentProfile, TransferAbort, TransferTimeout,
                        send_payload)
    from .registry import make_controller
    from .telemetry import Recorder, format_summary, write_csv, write_jsonl

    host, _, port_text = args.target.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"target must be HOST:PORT, got {args.target!r}",
              file=sys.stderr)
        return 2
    profile = ImpairmentProfile(
        loss=args.loss, delay=args.delay / 1000.0,
        jitter=args.jitter / 1000.0, reorder_probability=args.reorder,
        reorder_extra=args.reorder_extra / 1000.0, ack_loss=args.ack_loss,
        seed=args.impair_seed)
    from .sanitize import activate

    recorder = Recorder() if args.out or args.trace_summary else None
    controller = make_controller(args.cca, seed=args.seed)
    payload = bytes(args.bytes)
    sanitizer = _make_sanitizer(args)
    try:
        with activate(sanitizer):
            result = asyncio.run(send_payload(
                host, int(port_text), controller, payload, mss=args.mss,
                impairment=profile, seed=args.impair_seed, recorder=recorder,
                timeout=args.timeout, initial_seq=args.isn, cca_name=args.cca,
                max_consecutive_rtos=args.max_rtos))
    except TransferAbort as exc:
        if args.json:
            print(json.dumps({"aborted": exc.summary()}, sort_keys=True))
        else:
            print(f"transfer aborted: {exc} (reason={exc.reason})",
                  file=sys.stderr)
        return 3
    except TransferTimeout as exc:
        if args.json:
            print(json.dumps({"aborted": {"reason": "timeout",
                                          "error": str(exc)}},
                             sort_keys=True))
        else:
            print(f"transfer timed out: {exc}", file=sys.stderr)
        return 3
    _print_sanitizer(sanitizer)
    if args.json:
        print(json.dumps(result.summary(), sort_keys=True))
    else:
        print(f"{args.cca}: {result.bytes_total} bytes in "
              f"{result.duration:.3f}s "
              f"(throughput {result.throughput_mbps:.2f} Mbps), "
              f"srtt={result.srtt * 1e3:.1f} ms, "
              f"loss={result.loss_rate:.2%}, "
              f"{result.retransmissions} retransmissions")
    if result.telemetry is not None:
        if args.out:
            if args.format == "csv":
                records = write_csv(result.telemetry, args.out)
            else:
                records = write_jsonl(result.telemetry, args.out)
            print(f"wrote {records} {args.format} records to {args.out}")
        if args.trace_summary:
            print(format_summary(result.telemetry, tail=args.tail))
    return 0 if result.bytes_acked >= result.bytes_total else 1


def cmd_chaos(args) -> int:
    """Run seeded chaos scenarios against a real loopback netio server."""
    import json

    from .netio.chaos import run_chaos
    from .telemetry import Recorder, write_jsonl

    recorder = Recorder() if args.out else None
    try:
        reports = run_chaos(names=args.scenario or None, seed=args.seed,
                            recorder=recorder)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    status = 0
    for report in reports:
        if args.json:
            print(json.dumps(report.summary(), sort_keys=True), flush=True)
        else:
            print(report, flush=True)
            for check in report.checks:
                if not check.passed:
                    print(f"  {check}", flush=True)
            if report.traceback:
                print(report.traceback, file=sys.stderr)
        status |= not report.passed
    if args.out and recorder is not None:
        telemetry = recorder.finish(meta={"suite": "chaos",
                                          "seed": args.seed})
        records = write_jsonl(telemetry, args.out)
        if not args.json:
            print(f"wrote {records} telemetry records to {args.out}")
    return status


def cmd_replay(args) -> int:
    """Re-execute a captured failure bundle and report the verdict.

    Exit status: 0 = the recorded exception was reproduced exactly,
    2 = the replay raised a *different* exception (under forced
    sanitizers, often an earlier invariant violation on the same root
    cause), 1 = the replay completed without error.
    """
    import json

    from .sanitize.replay import replay

    try:
        report = replay(args.bundle, sanitize=not args.no_sanitize)
    except (OSError, ValueError) as exc:
        print(f"cannot replay {args.bundle!r}: {exc}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        for warning in report.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        print(f"recorded:  {report.original_type}: "
              f"{report.original_message}")
        if report.replayed_type:
            print(f"replayed:  {report.replayed_type}: "
                  f"{report.replayed_message}")
        else:
            print("replayed:  (completed without error)")
        print(f"verdict:   {report.verdict}"
              + (f"  [{report.audits} sanitizer audits]"
                 if report.sanitize else ""))
        if report.verdict == "different-error" and report.replayed_traceback:
            print(report.replayed_traceback, file=sys.stderr)
    return {"reproduced": 0, "no-error": 1}.get(report.verdict, 2)


def cmd_diff(args) -> int:
    """Differential oracle: same job, two configurations, equal metrics."""
    import json

    from .parallel.jobs import single_flow_job
    from .sanitize.diff import run_diff
    from .scenarios.presets import named_presets

    presets = named_presets()
    if args.scenario not in presets:
        print(f"unknown scenario {args.scenario!r}; choose from "
              f"{', '.join(sorted(presets))}", file=sys.stderr)
        return 2
    if args.churn:
        from .scale import churn_job, churn_preset

        try:
            spec = churn_preset(args.churn)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        job = churn_job(spec, args.cca, presets[args.scenario],
                        seed=args.seed, duration=args.duration)
    else:
        job = single_flow_job(args.cca, presets[args.scenario],
                              seed=args.seed, duration=args.duration)
    modes = ("fork", "telemetry", "sanitize", "engine") if args.mode == "all" \
        else (args.mode,)
    status = 0
    for mode in modes:
        report = run_diff(job, mode=mode, tolerance=args.tolerance)
        if args.json:
            print(json.dumps(report.to_json(), sort_keys=True), flush=True)
        else:
            verdict = "EQUAL" if report.equal else \
                f"DIVERGED on {len(report.discrepancies)} metric(s)"
            print(f"{mode}: {report.label_a} vs {report.label_b} — "
                  f"{verdict} ({len(report.fingerprint_a)} metrics, "
                  f"tolerance {report.tolerance})", flush=True)
            for note in report.notes:
                print(f"  note: {note}")
            for disc in report.discrepancies[:10]:
                print(f"  {disc}")
        status |= not report.equal
    return status


def main(argv=None) -> int:
    from . import __version__

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help=COMMANDS["list"])

    def add_flow_args(p) -> None:
        p.add_argument("cca")
        p.add_argument("--bw", type=float, default=48.0, help="Mbps")
        p.add_argument("--lte", choices=("stationary", "walking", "driving",
                                         "moving"), help="use an LTE trace")
        p.add_argument("--rtt", type=float, default=100.0, help="ms")
        p.add_argument("--buffer", type=float, default=None, help="KB")
        p.add_argument("--loss", type=float, default=0.0)
        p.add_argument("--duration", type=float, default=20.0)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--aqm", choices=("droptail", "codel"),
                       default="droptail")
        p.add_argument("--sanitize", action="store_true",
                       help="run with the runtime invariant layer on")

    run = sub.add_parser("run", help="run one flow through a bottleneck")
    add_flow_args(run)

    trace = sub.add_parser(
        "trace", help="run one traced flow and inspect/export its telemetry")
    add_flow_args(trace)
    trace.add_argument("--out", default=None,
                       help="write the trace to this file")
    trace.add_argument("--format", choices=("jsonl", "csv"), default="jsonl",
                       help="export format for --out (default: jsonl)")
    trace.add_argument("--tail", type=int, default=10,
                       help="also print the last N events (0 disables)")

    exp = sub.add_parser("experiment", help="print one paper artifact")
    exp.add_argument("name")
    exp.add_argument("--jobs", type=int, default=1,
                     help="worker processes for sweep grids "
                          "(1 = serial, 0 = one per CPU)")
    exp.add_argument("--no-cache", action="store_true",
                     help="bypass the on-disk result cache")
    exp.add_argument("--cache-dir", default=None,
                     help="result cache location "
                          "(default: $REPRO_CACHE_DIR or ~/.cache/repro/sweeps)")
    exp.add_argument("--timeout", type=float, default=None,
                     help="per-job wall-time bound in seconds (parallel mode)")
    exp.add_argument("--quiet", action="store_true",
                     help="suppress progress output on stderr")

    train = sub.add_parser(
        "train", help="train a policy: parallel rollouts, checkpoints, "
                      "structured logs, eval-gated promotion")
    train.add_argument("kind", nargs="?",
                       help="policy kind (libra, aurora, orca, modified-rl)")
    train.add_argument("--all", action="store_true",
                       help="train every policy kind in sequence")
    train.add_argument("--workers", type=int, default=1,
                       help="parallel rollout workers (default 1)")
    train.add_argument("--iterations", type=int, default=30,
                       help="training iterations (PPO epochs)")
    train.add_argument("--steps", type=int, default=1920,
                       help="environment steps collected per iteration")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--hidden", default="64,64",
                       help="comma-separated hidden layer sizes")
    train.add_argument("--episode-steps", type=int, default=96)
    train.add_argument("--backend", choices=("auto", "serial", "fork"),
                       default="auto",
                       help="rollout execution backend (default auto: fork "
                            "when --workers > 1 and the platform supports it)")
    train.add_argument("--timeout", type=float, default=None,
                       help="per-rollout-task wall-time bound (fork mode)")
    train.add_argument("--checkpoint-every", type=int, default=0,
                       help="checkpoint cadence in iterations "
                            "(0 = final iteration only)")
    train.add_argument("--checkpoint-dir", default=None,
                       help="checkpoint directory "
                            "(default: checkpoints/<kind> when needed)")
    train.add_argument("--resume", action="store_true",
                       help="resume from the latest checkpoint in "
                            "--checkpoint-dir")
    train.add_argument("--log", default=None,
                       help="write a structured JSONL training log here")
    train.add_argument("--save", default=None,
                       help="write the final policy weights to this .npz")
    train.add_argument("--promote", action="store_true",
                       help="run the evaluation gate and replace the bundled "
                            "asset only if the candidate beats it "
                            "(exit 1 when the gate refuses)")
    train.add_argument("--assets-dir", default=None,
                       help="asset directory for --promote/--verify-assets "
                            "(default: the bundled repro/assets)")
    train.add_argument("--gate-duration", type=float, default=10.0,
                       help="seconds of simulated time per gate panel run")
    train.add_argument("--gate-seeds", default="1,2",
                       help="comma-separated seeds per gate panel scenario")
    train.add_argument("--verify-assets", action="store_true",
                       help="check bundled .npz files against MANIFEST.json "
                            "and exit")
    train.add_argument("--quiet", action="store_true",
                       help="suppress per-iteration progress lines")

    serve = sub.add_parser("serve", help=COMMANDS["serve"])
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="UDP port (0 = ephemeral; the chosen port is "
                            "printed on the 'netio: listening' line)")
    serve.add_argument("--one", action="store_true",
                       help="exit after the first completed transfer "
                            "(exit 1 if it was incomplete)")
    serve.add_argument("--json", action="store_true",
                       help="print one JSON summary line per transfer")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-transfer progress on stderr")
    serve.add_argument("--idle-timeout", type=float, default=30.0,
                       help="seconds without a datagram before a session "
                            "is reaped with an RST (default 30)")
    serve.add_argument("--max-sessions", type=int, default=256,
                       help="concurrent sessions before SYNs are refused "
                            "(default 256)")
    serve.add_argument("--buffer-cap", type=int, default=4 * 1024 * 1024,
                       help="per-session reorder-buffer byte cap "
                            "(default 4 MiB)")
    serve.add_argument("--drain-deadline", type=float, default=15.0,
                       help="seconds a SIGTERM drain waits for in-flight "
                            "transfers before force-resetting (default 15)")
    serve.add_argument("--out", default=None,
                       help="write server telemetry JSONL here on drain")
    serve.add_argument("--sanitize", action="store_true",
                       help="check rx-buffer invariants on every session")

    send = sub.add_parser("send", help=COMMANDS["send"])
    send.add_argument("target", help="server address as HOST:PORT")
    send.add_argument("--cca", default="libra:cubic",
                      help="controller name (see `repro list`)")
    send.add_argument("--bytes", type=int, default=1_048_576,
                      help="payload size in bytes (default 1 MiB)")
    send.add_argument("--mss", type=int, default=1200,
                      help="datagram payload size (default 1200)")
    send.add_argument("--seed", type=int, default=1,
                      help="controller seed")
    send.add_argument("--isn", type=int, default=0,
                      help="initial sequence number (mod 2^16)")
    send.add_argument("--loss", type=float, default=0.0,
                      help="loopback impairment: data loss probability")
    send.add_argument("--delay", type=float, default=0.0,
                      help="loopback impairment: one-way delay in ms")
    send.add_argument("--jitter", type=float, default=0.0,
                      help="loopback impairment: uniform jitter in ms")
    send.add_argument("--reorder", type=float, default=0.0,
                      help="loopback impairment: reorder probability")
    send.add_argument("--reorder-extra", type=float, default=0.0,
                      help="extra holdback for reordered datagrams in ms")
    send.add_argument("--ack-loss", type=float, default=0.0,
                      help="loopback impairment: ACK loss probability")
    send.add_argument("--impair-seed", type=int, default=0,
                      help="impairment RNG seed")
    send.add_argument("--timeout", type=float, default=120.0,
                      help="abort the transfer after this many seconds")
    send.add_argument("--max-rtos", type=int, default=6,
                      help="consecutive RTOs without an ACK before the "
                           "transfer aborts with rto-exhausted (default 6)")
    send.add_argument("--json", action="store_true",
                      help="print a machine-readable JSON summary")
    send.add_argument("--out", default=None,
                      help="write the flow telemetry to this file")
    send.add_argument("--format", choices=("jsonl", "csv"), default="jsonl",
                      help="export format for --out (default: jsonl)")
    send.add_argument("--trace-summary", action="store_true",
                      help="print the telemetry summary after the transfer")
    send.add_argument("--tail", type=int, default=10,
                      help="events shown by --trace-summary (0 disables)")
    send.add_argument("--sanitize", action="store_true",
                      help="check ARQ seq-ring invariants during the "
                           "transfer")

    chaos = sub.add_parser("chaos", help=COMMANDS["chaos"])
    chaos.add_argument("--scenario", action="append", default=None,
                       help="scenario to run (repeatable; default: all — "
                            "kill-client, syn-flood, fuzz, server-restart, "
                            "drain)")
    chaos.add_argument("--seed", type=int, default=1,
                       help="scenario RNG seed (default 1)")
    chaos.add_argument("--json", action="store_true",
                       help="print one JSON report line per scenario")
    chaos.add_argument("--out", default=None,
                       help="write the combined chaos telemetry JSONL here")

    replay = sub.add_parser("replay", help=COMMANDS["replay"])
    replay.add_argument("bundle",
                        help="repro bundle captured under $REPRO_FAILURES_DIR")
    replay.add_argument("--no-sanitize", action="store_true",
                        help="replay in the pristine configuration instead "
                             "of forcing the invariant layer on")
    replay.add_argument("--json", action="store_true",
                        help="print a machine-readable verdict")

    diff = sub.add_parser("diff", help=COMMANDS["diff"])
    diff.add_argument("--cca", default="c-libra",
                      help="controller name (default c-libra)")
    diff.add_argument("--scenario", default="wired-48",
                      help="scenario preset (default wired-48; see "
                           "`repro list` scenarios)")
    diff.add_argument("--seed", type=int, default=1)
    diff.add_argument("--churn", default=None,
                      help="run a named churn workload (e.g. churn-smoke) "
                           "instead of one long-lived flow")
    diff.add_argument("--duration", type=float, default=None,
                      help="simulated seconds (default: scenario default)")
    diff.add_argument("--mode", default="all",
                      choices=("all", "fork", "telemetry", "sanitize",
                               "engine"),
                      help="which configuration pair to compare "
                           "(default: all)")
    diff.add_argument("--tolerance", type=float, default=0.0,
                      help="relative metric tolerance (default 0.0 = exact)")
    diff.add_argument("--json", action="store_true",
                      help="print one JSON report line per mode")

    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "train":
        return cmd_train(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "send":
        return cmd_send(args)
    if args.command == "chaos":
        return cmd_chaos(args)
    if args.command == "replay":
        return cmd_replay(args)
    if args.command == "diff":
        return cmd_diff(args)
    return cmd_experiment(args)


if __name__ == "__main__":
    sys.exit(main())
