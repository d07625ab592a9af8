"""Child process of the benchmark: set up one workload, then run its loop.

    python bench/worker.py --workload NAME --seed N [--seconds S] [--trace 0|1]
                           [--min-ops M] [--cap C] [--setup-only]

Run from the root of a checkout.  Prints one JSON object per line and
flushes each, so the parent still has every finished op if this process is
killed: a `plan` line, a `setup` line, one line per op and an `end` line.
An in-process workload first runs one warm-up round: its ops are checked
and counted, but marked `warmup` and left out of every timing.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

import qecdesk  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HARD_CAP_S = 110.0     # no loop runs longer than this


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def loop_done(elapsed: float, seconds: float, ops_done: int, rounds: int, traced: bool,
              min_ops: int = 0, cap: float = HARD_CAP_S) -> bool:
    """Whole rounds run while the next one is expected to end within `seconds`,
    and then until at least min_ops ops are done.

    A traced run alternates untraced and traced rounds and needs one of
    each.  Nothing runs past the cap.
    """
    if elapsed >= cap:
        return True
    if rounds == 0 or elapsed * (rounds + 1) / rounds <= seconds:
        return False
    if traced:
        return rounds >= 2
    return ops_done >= min_ops


def run_op(op, fx, tracer=None):
    """Time one op, then check its output; the check is neither timed nor traced."""
    run, check = workloads.KINDS[op.kind]
    if tracer is not None:
        tracer.active = True
    t = time.perf_counter()
    try:
        result = run(op, fx)
        error = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        result, error = None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t
    if tracer is not None:
        tracer.active = False
    if error is None:
        try:
            check(op, fx, result)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    return dt, result, error


def cli_spans(proc) -> dict | None:
    """The span totals a traced CLI child writes as its last stderr line."""
    lines = proc.stderr.decode(errors="replace").strip().splitlines()
    if lines and lines[-1].startswith("BENCH_SPANS "):
        return json.loads(lines[-1][len("BENCH_SPANS "):])
    return None


def run_loop(ops, fx, seconds: float, trace: bool, min_ops: int = 0,
             cap: float = HARD_CAP_S, seed: int = 0) -> dict:
    """Repeat the round of ops; in a traced run, trace every other round.

    An in-process workload first runs one warm-up round, outside the
    timed loop; a CLI op starts a fresh process, so there is nothing to warm.
    Each timed round runs the ops in a new order, drawn from the seed: what
    an op costs depends on what ran before it (memory a large product left
    to the allocator), and one fixed order would tie that cost to the seed.
    """
    order = random.Random(f"order:{seed}")
    if ops[0].kind != "cli":
        for op in ops:
            dt, result, error = run_op(op, fx)
            result = None   # as in the loop: one op's output alive at a time
            emit({"op": op.name, "s": dt, "ok": error is None, "error": error,
                  "traced": False, "warmup": True})
    tracer = spans.Tracer() if trace else None
    rounds = done = 0
    timed = {"untraced": [0, 0.0], "traced": [0, 0.0]}   # ops, wall seconds
    cli = {"startup_s": 0.0, "out_bytes": 0}
    start = time.perf_counter()
    while not loop_done(time.perf_counter() - start, seconds, done, rounds, trace,
                        min_ops, cap):
        traced = trace and rounds % 2 == 1
        in_process = traced and ops[0].kind != "cli"
        fx["cli_traced"] = traced
        if in_process:
            tracer.install()
        r0 = time.perf_counter()
        for op in order.sample(ops, len(ops)):
            dt, result, error = run_op(op, fx, tracer if in_process else None)
            if traced and op.kind == "cli" and result is not None:
                dump = cli_spans(result)
                if dump is not None:
                    tracer.merge(dump["totals"], dump["counters"])
                    cli["startup_s"] += dt - dump["main_s"]
                    cli["out_bytes"] += len(result.stdout)
            result = None   # so two ops' outputs are never alive at once
            emit({"op": op.name, "s": dt, "ok": error is None, "error": error,
                  "traced": traced, "warmup": False})
        row = timed["traced" if traced else "untraced"]
        row[0] += len(ops)
        row[1] += time.perf_counter() - r0
        if in_process:
            tracer.uninstall()
        rounds += 1
        done += len(ops)
    out = {"loop_s": time.perf_counter() - start, "rounds": rounds, "timed": timed}
    if trace:
        out["trace"] = {"rounds": rounds // 2, **tracer.dump(), "cli": cli}
    return out


def peak_rss_mib(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-mix" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-ops", type=int, default=0)
    ap.add_argument("--cap", type=float, default=HARD_CAP_S)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(qecdesk.__file__).startswith(src + os.sep):
        raise SystemExit(f"qecdesk was imported from {qecdesk.__file__}, not {src}")
    ops = workloads.plan(args.workload, args.seed)
    emit({"event": "plan", "round_ops": len(ops)})
    fx = workloads.setup(args.workload, ops, ROOT)
    emit({"event": "setup", "setup_s": time.perf_counter() - T0})
    if args.setup_only:
        return 0
    result = run_loop(ops, fx, args.seconds, bool(args.trace), args.min_ops, args.cap,
                      args.seed)
    emit({"event": "end", "peak_rss_mib": peak_rss_mib(args.workload), **result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
