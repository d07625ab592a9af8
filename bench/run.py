"""Run one workload of the qecdesk benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qecdesk is imported from its `src/`.  The
workload runs in child processes (worker.py), so a crash or an out-of-memory
kill there counts the rest of its round as failed ops instead of ending the
benchmark.  With `--trace 0` the end-to-end metrics are printed: the run
times `import qecdesk` and the workload's set-up in fresh processes, half
of the samples before the timed loop and half after it, while no other
process of the benchmark runs, and one worker runs the loop for `--seconds`.
With `--trace 1` the per-layer metrics are printed, from spans recorded in
alternate rounds of a single worker.
Every metric is printed as `name = value unit`, then a provenance line, then
one JSON object as the last line.  The full record goes to
`bench/results/<workload>-seed<N>-trace<T>.json`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import spans  # noqa: E402
from stats import MIN_TAIL, TAIL_Q, above, quantile  # noqa: E402
from workloads import WORKLOADS, import_seconds, src_env  # noqa: E402

IMPORTS_PER_SIDE = 5    # `import qecdesk` processes before and after the loop
SETUPS_BEFORE, SETUPS_AFTER = 2, 2   # set-up-only processes; the loop's worker adds one
MIN_OPS = round(MIN_TAIL / (1 - TAIL_Q))   # ops that leave MIN_TAIL above p90
BUDGET_S = 130.0      # the loop's worker, set-up to end, ends within this
SETUP_TIMEOUT_S = 10.0
LOOP_SLACK_S = 30.0   # its set-up, warm-up round and last round beyond the loop's cap

WAITING = "none recorded; the program is single-threaded and no layer queues"

END_TO_END = {
    "op_s.p50": "s", "op_s.p90": "s", "ops_per_s": "1/s", "ok_frac": "ratio",
    "setup_s": "s", "import_s": "s", "peak_rss_mib": "MiB",
}


def worker(args, timeout: float, *extra: str):
    """Run worker.py; returns (parsed lines, exit code or None on timeout)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), *extra]
    # its own session, so that a timeout also kills the CLI processes it started
    with subprocess.Popen(cmd, env=src_env(ROOT), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            code = None
    if code != 0:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    lines = []
    for raw in out.decode(errors="replace").splitlines():
        try:
            lines.append(json.loads(raw))
        except json.JSONDecodeError:
            break  # a line cut short by a kill
    return lines, code


def account(lines, code):
    """Ops attempted and failed, counting the rest of a crashed round as failed."""
    events = {l["event"]: l for l in lines if "event" in l}
    ops = [l for l in lines if "op" in l]
    attempted = len(ops)
    failed = sum(1 for l in ops if not l["ok"])
    if "end" not in events:
        round_ops = events.get("plan", {}).get("round_ops", 1)
        lost = round_ops - attempted % round_ops
        sys.stderr.write(f"worker ended without finishing (exit {code}); "
                         f"{lost} ops of the round counted as failed\n")
        attempted += lost
        failed += lost
    return events, ops, attempted, failed


def end_to_end(events, ops, attempted, failed, setup, imports) -> dict:
    """The seven end-to-end metrics from the untraced loop of one run."""
    lat = [l["s"] for l in ops if not l["warmup"]]
    if "end" in events:
        n, s = events["end"]["timed"]["untraced"]
        ops_per_s = n / s
        rss = events["end"]["peak_rss_mib"]
    else:
        ops_per_s = len(lat) / sum(lat) if lat else 0.0
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "op_s.p50": quantile(lat, 0.5) if lat else 0.0,
        "op_s.p90": quantile(lat, TAIL_Q) if lat else 0.0,
        "ops_per_s": ops_per_s,
        "ok_frac": 1.0 - failed / attempted,
        "setup_s": statistics.median(setup) if setup else 0.0,
        "import_s": statistics.median(imports),
        "peak_rss_mib": rss,
    }


def setup_only(args, count: int) -> list:
    """Set-up times of `count` fresh workers that stop before the loop."""
    out = []
    for _ in range(count):
        lines, _ = worker(args, SETUP_TIMEOUT_S, "--setup-only")
        out += [l["setup_s"] for l in lines if l.get("event") == "setup"]
    return out


def per_layer(events, ops) -> dict:
    end = events["end"]
    tr = end["trace"]
    rounds = tr["rounds"]
    out = spans.layer_metrics(tr["totals"], tr["counters"], rounds)
    out["cli.startup_s"] = tr["cli"]["startup_s"] / max(rounds, 1)
    out["cli.out_bytes"] = tr["cli"]["out_bytes"] / max(rounds, 1)
    (n_u, s_u), (n_t, s_t) = end["timed"]["untraced"], end["timed"]["traced"]
    out["trace.overhead_frac"] = (s_t / n_t) / (s_u / n_u) - 1.0
    traced_op_s = sum(l["s"] for l in ops if l["traced"]) / max(rounds, 1)
    covered = sum(out[f"{layer}.self_s"] for layer in spans.LAYERS) + out["cli.startup_s"]
    out["trace.cover_frac"] = covered / traced_op_s if traced_op_s > 0 else 0.0
    return out


def blas_threads() -> int | None:
    """Threads of the OpenBLAS library bundled with numpy, left at its default."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
    for name in (n for n in names if "openblas" in n):
        lib = ctypes.CDLL(os.path.join(libs, name))   # the handle numpy already loaded
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def provenance(**fields) -> dict:
    """The machine and software a result was measured on, plus the given fields."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "load": "closed loop, one client, one process",
        **fields,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qecdesk", "__init__.py")):
        sys.stderr.write(f"no qecdesk sources under {ROOT}/src; run from a checkout root\n")
        return 2

    setup, imports = [], []
    if not args.trace:
        imports += [import_seconds(ROOT) for _ in range(IMPORTS_PER_SIDE)]
        setup += setup_only(args, SETUPS_BEFORE)
    cap = BUDGET_S - LOOP_SLACK_S
    lines, code = worker(args, BUDGET_S, "--seconds", str(args.seconds),
                         "--min-ops", str(MIN_OPS), "--cap", str(cap))
    events, ops, attempted, failed = account(lines, code)
    if "setup" in events:
        setup.append(events["setup"]["setup_s"])
    if args.trace:
        if "end" not in events:
            sys.stderr.write("traced run did not finish; no per-layer metrics\n")
            return 1
        metrics = per_layer(events, ops)
        units = {name: layer_unit(name) for name in metrics}
    else:
        setup += setup_only(args, SETUPS_AFTER)
        imports += [import_seconds(ROOT) for _ in range(IMPORTS_PER_SIDE)]
        metrics = end_to_end(events, ops, attempted, failed, setup, imports)
        units = END_TO_END
    prov = provenance(**vars(args))

    lat = [l["s"] for l in ops if not l["traced"] and not l["warmup"]]
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_frac = {failed}/{attempted} = {failed / attempted:.6g} (base: ops attempted)")
    if not args.trace:
        print(f"samples = {len(lat)} ops, {above(lat, TAIL_Q) if lat else 0} above p90")
    else:
        print(f"waiting: {WAITING}")
    for l in ops:
        if not l["ok"]:
            print(f"failed: {l['op']}: {l['error']}")
    print("provenance: " + json.dumps(prov))

    record = {"provenance": prov, "attempted": attempted, "failed": failed,
              "metrics": metrics, "setup_samples": setup, "import_samples": imports,
              "ops": ops, "trace": events.get("end", {}).get("trace"),
              "waiting": WAITING if args.trace else None}
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
