"""One-shot baseline probe: re-time each row of the ROADMAP baseline table.

    python3 bench/probe.py            # about four minutes on 2 CPUs

Not a gated workload.  Each row is timed once, from the root of a checkout,
and compared with the value the ROADMAP quotes: a row reproduces when the
new time is within a factor of 1.5 of the quoted one (or, for the rows
quoted only as "ms", under 0.1 s) and any numerical agreement the row claims
holds.  The rows named "prototype" are not in the package; they are short
numpy versions of ROADMAP items 2 and 3, kept here so their claims can be
checked.  Results go to `bench/results/probe.json`, beside the benchmark's
own results, and are printed one line per row.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

import numpy as np  # noqa: E402

import qecdesk.analysis as analysis  # noqa: E402
import qecdesk.channels as channels  # noqa: E402
import qecdesk.codes as codes  # noqa: E402
import qecdesk.fidelity as fidelity  # noqa: E402
import qecdesk.gf2_symplectic as gf2  # noqa: E402

from run import provenance  # noqa: E402
from workloads import CODES, src_env  # noqa: E402

FACTOR = 1.5


def timed(fn):
    t = time.perf_counter()
    value = fn()
    return time.perf_counter() - t, value


def cli_seconds(*argv) -> float:
    t = time.perf_counter()
    subprocess.run([sys.executable, "-m", "qecdesk.cli", *argv], env=src_env(ROOT),
                   capture_output=True, check=True, timeout=300)
    return time.perf_counter() - t


def per_qubit_apply(single: channels.KrausChannel, rho: np.ndarray, n: int) -> np.ndarray:
    """Prototype: apply the same one-qubit channel to each qubit of rho in turn."""
    t = rho.reshape((2,) * (2 * n))
    for q in range(n):
        acc = np.zeros_like(t)
        for _, a in single.ops:
            x = np.moveaxis(np.tensordot(a, t, axes=([1], [q])), 0, q)
            x = np.moveaxis(np.tensordot(x, a.conj(), axes=([n + q], [1])), -1, n + q)
            acc += x
        t = acc
    return t.reshape(rho.shape)


def code_basis_gram(space: codes.CodeSubspace, errors) -> tuple[bool, float]:
    """Prototype: Knill-Laflamme test on B_i = E_i C, one Gram block per pair."""
    c = space.basis_matrix()
    blocks = [e @ c for _, e in errors]
    k = c.shape[1]
    worst = 0.0
    for bi in blocks:
        for bj in blocks:
            g = bi.conj().T @ bj
            lam = np.trace(g) / k
            worst = max(worst, float(np.abs(g - lam * np.eye(k)).max()))
    return worst <= 1e-9, worst


def main() -> int:
    rows = []

    def row(name, quoted, seconds, ok=True, note=""):
        if quoted is None:
            within = seconds < 0.1
        else:
            within = quoted / FACTOR <= seconds <= quoted * FACTOR
        rows.append({"row": name, "quoted_s": quoted, "measured_s": seconds,
                     "reproduces": bool(within and ok), "note": note})
        shown = "ms" if quoted is None else f"{quoted:g} s"
        print(f"{'yes' if within and ok else 'NO ':3s}  {seconds:9.4f} s  (quoted {shown})  "
              f"{name} {note}", flush=True)

    row("CLI demo five-qubit", 0.89, cli_seconds("demo", "five-qubit"))
    row("CLI simulate fivequbit ... depolarizing", 0.91,
        cli_seconds("simulate", "--code", "fivequbit", "--channel",
                    "independent n=5 depolarizing p=0.1", "--input", "0"))

    one = channels.depolarizing(0.1)
    build_s, dep5 = timed(lambda: channels.tensor_independent(one, 5))
    row("tensor_independent(depolarizing, 5) build", 0.29, build_s)
    rng = np.random.default_rng(0)
    z = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    rho = z @ z.conj().T
    rho /= np.trace(rho).real
    apply_s, dense = timed(lambda: dep5.apply_matrix(rho))
    row("tensor_independent(depolarizing, 5) apply", 0.09, apply_s)
    local_s, local = timed(lambda: per_qubit_apply(one, rho, 5))
    diff = float(np.abs(local - dense).max())
    row("same noise one qubit at a time (prototype)", 1.9e-3, local_s, diff <= 1e-12,
        f"max diff {diff:.1e}")

    _, five = codes.five_qubit()
    errors5 = analysis.weight_le_errors(5, 2)
    row("correctable_quantum, five-qubit, weight <= 2", 0.57,
        timed(lambda: analysis.correctable_quantum(five, errors5))[0])

    shor_stab = gf2.StabilizerGeneratorSet.from_strings(list(CODES["shor"]))
    shor = codes.stabilizer_codespace(shor_stab)
    errors9 = analysis.weight_le_errors(9, 1)
    kl_s, verdict = timed(lambda: analysis.correctable_quantum(shor, errors9))
    row("correctable_quantum, Shor 9-qubit, weight <= 1", 30.1, kl_s, verdict.correctable,
        f"{len(errors9)} errors, correctable={verdict.correctable}")
    gram_s, (ok, resid) = timed(lambda: code_basis_gram(shor, errors9))
    row("same via code-basis Gram (prototype)", 0.27, gram_s, ok == verdict.correctable,
        f"residual {resid:.1e}, correctable={ok}")

    dense_s, d_dense = timed(lambda: analysis.min_distance_quantum(shor))
    sym_s, d_sym = timed(lambda: shor_stab.min_distance())
    row("min_distance_quantum (dense), Shor 9-qubit", 10.8, dense_s, d_dense == 3,
        f"distance {d_dense}")
    row("min_distance (symplectic), Shor 9-qubit", None, sym_s, d_sym == d_dense,
        f"distance {d_sym}")

    fe_s, fe = timed(lambda: fidelity.entanglement_fidelity(dep5))
    row("entanglement_fidelity(depolarizing^5)", 25.8, fe_s)
    tr_s, fe_tr = timed(lambda: sum(abs(np.trace(a)) ** 2 for _, a in dep5.ops) / 32 ** 2)
    row("same as sum |tr A_k|^2 / d^2 (prototype)", 31e-3, tr_s, abs(fe_tr - fe) <= 1e-12,
        f"difference {abs(fe_tr - fe):.1e}")

    mc_s, est = timed(lambda: fidelity.average_error_monte_carlo(dep5, 10_000, seed=0))
    haar = 32 / 33 * (1.0 - fe)
    row("average_error_monte_carlo(depolarizing^5, 10k trials)", 150.0, mc_s,
        abs(est.mean - haar) <= 5 * est.std_error,
        f"{est.mean:.6f} +- {est.std_error:.1e} vs d/(d+1)(1-F_e) = {haar:.6f}")

    row("CLI noiseless --rotations 1000", 1.43, cli_seconds("noiseless", "--rotations", "1000"))

    record = {"provenance": provenance(tool="probe"), "factor": FACTOR, "rows": rows}
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "probe.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"{sum(r['reproduces'] for r in rows)} of {len(rows)} rows reproduce")
    return 0


if __name__ == "__main__":
    sys.exit(main())
