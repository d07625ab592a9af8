"""The benchmark's four workloads: seeded op plans, fixtures, ops and checks.

A workload is one round of ops, generated from the seed as plain data; the
timed loop repeats the round.  `plan` needs no fixture and is the only place
the seed is used, so the program receives only the generated inputs.  Each
op kind has a runner (the timed call into qecdesk) and a check (untimed)
that raises `CheckFailed` when an output is wrong.

Every runner calls the package through module attributes
(`qecdesk.analysis.correctable_quantum`, not a name imported earlier), so
the tracer in spans.py sees the call.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("cli-mix", "stabilizer-kl", "product-noise", "sampling")
# run by hand only: on a shared 2-CPU machine its latencies drift past the
# bounds of BENCHMARK.json, and product-noise and cli-mix reach its functions
UNGATED = ("sampling",)

ATOL = 1e-9           # exact identities on outputs the CLI rounds to 10 decimals
ATOL_REPORTED = 1e-4  # outcome masses summing to one, as the package states it
MC_SIGMAS = 5.0
CLI_TIMEOUT_S = 60.0

# Stabilizer generators, qubit 1 leftmost.  Distance 3 for all three codes.
CODES = {
    "five": ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"),
    "steane": ("IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"),
    "shor": ("ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI",
             "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX"),
}
# A logical operator of each code: in the centralizer, outside the stabilizer.
LOGICAL = {"five": "XXXXX", "steane": "XXXXXXX", "shor": "ZZZZZZZZZ"}
# Knill-Laflamme rank of the weight<=1 errors: the number of errors.
KL_RANK = {"five": 16, "steane": 22}

DEMOS = ("trivial2", "repetition-classical", "repetition-quantum", "cyclic7",
         "three-spin", "five-qubit", "parity2")


class CheckFailed(Exception):
    """An op's output disagrees with what the benchmark knows it must be."""


@dataclass(frozen=True)
class Op:
    name: str
    kind: str
    args: tuple


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- admission: refuse inputs the dense backend cannot hold -------------------


def available_bytes() -> int:
    """Free physical memory, as the C library reports it."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_AVPHYS_PAGES")


def admit_product(ops: int, n: int, avail: int | None = None) -> None:
    """Raise ValueError unless a product channel of `ops` operators on n qubits
    fits every cap.

    The dense product holds its operators as (2^n)^2 complex entries each; the
    constructor needs about twice that while it validates them.
    """
    from qecdesk.channels import MAX_KRAUS_OPS
    from qecdesk.hilbert import MAX_TOTAL_DIM

    dim = 2 ** n
    if ops > MAX_KRAUS_OPS:
        raise ValueError(f"{ops} Kraus operators exceed MAX_KRAUS_OPS={MAX_KRAUS_OPS}")
    if dim > MAX_TOTAL_DIM:
        raise ValueError(f"dimension {dim} exceeds MAX_TOTAL_DIM={MAX_TOTAL_DIM}")
    need = 2 * ops * dim * dim * 16
    avail = available_bytes() if avail is None else avail
    if need > avail // 2:
        raise ValueError(f"{ops} operators of dimension {dim} need {need} bytes, "
                         f"more than half of the {avail} available")


# --- seeded input generation ---------------------------------------------------


def _permute(word: str, perm: list[int]) -> str:
    out = ["I"] * len(word)
    for j, c in enumerate(word):
        out[perm[j]] = c
    return "".join(out)


_MUL = {("I", c): c for c in "IXYZ"}
_MUL.update({(c, "I"): c for c in "IXYZ"})
_MUL.update({(c, c): "I" for c in "XYZ"})
_MUL.update({("X", "Y"): "Z", ("Y", "X"): "Z", ("Y", "Z"): "X", ("Z", "Y"): "X",
             ("Z", "X"): "Y", ("X", "Z"): "Y"})


def _times(a: str, b: str) -> str:
    """Phase-free product of two Pauli words."""
    return "".join(_MUL[x, y] for x, y in zip(a, b))


def _haar_qubit(rng: random.Random) -> tuple[tuple[float, float], ...]:
    z = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
    norm = math.sqrt(sum(abs(x) ** 2 for x in z))
    return tuple((x.real / norm, x.imag / norm) for x in z)


# A shared machine runs in fast and slow spells of a few seconds, and a slow
# spell makes every op up to 1.7 times slower.  The median or p90 of a group of
# ops that all cost the same then jumps between the group's fast and slow
# latency as the share of slow time in a run crosses one half.  So each round
# is a ladder: op costs spread over the whole range with neighbours less than
# about twice apart, and costs that do not depend on the seed.


def _stabilizer_kl(rng: random.Random) -> list[Op]:
    ops = []
    codes = {}
    for code, gens in CODES.items():
        perm = list(range(len(gens[0])))
        rng.shuffle(perm)
        codes[code] = (tuple(_permute(g, perm) for g in gens), _permute(LOGICAL[code], perm))

    def stabilizer_element(code):
        gens = codes[code][0]
        word = gens[rng.randrange(len(gens))]
        for g in gens:
            if rng.random() < 0.5:
                word = _times(word, g)
        return word if set(word) != {"I"} else gens[0]

    def detectable(code, word, k):
        ops.append(Op(f"detectable_quantum[{code},{k}]", "detectable",
                      (code, codes[code][0], word)))

    for code, (gens, _) in codes.items():
        ops.append(Op(f"stabilizer_codespace[{code}]", "codespace", (code, gens)))
        ops.append(Op(f"min_distance[{code}]", "mindist_gf2", (code, gens)))
    for code in ("five", "steane"):
        ops.append(_decoder_op(code, codes[code][0], rng))
        ops.append(Op(f"min_distance_quantum[{code}]", "mindist_dense", (code, codes[code][0])))
    five, steane = codes["five"][0], codes["steane"][0]
    ops.append(Op("correctable_quantum[five,w1]", "correctable", ("five", five, 1, None)))
    ops.append(Op("correctable_quantum[five,w2]", "correctable", ("five", five, 2, None)))
    ops.append(Op("correctable_quantum[steane,w1]", "correctable", ("steane", steane, 1, None)))
    # seeded subsets of the 22 Steane weight<=1 errors, 13 ms (4) to 0.3 s (19)
    for m in (4, 6, 8, 11, 16, 19):
        subset = tuple(sorted(rng.sample(range(22), m)))
        ops.append(Op(f"correctable_quantum[steane,w1,{m}]", "correctable",
                      ("steane", steane, 1, subset)))
    detectable("five", _times(codes["five"][1], stabilizer_element("five")), 0)
    detectable("steane", "".join(rng.choice("IXYZ") for _ in range(7)), 0)
    shor, logical = codes["shor"]
    words = ["".join(rng.choice("IXYZ") for _ in range(9)) for _ in range(2)]
    words += [stabilizer_element("shor"), _times(logical, stabilizer_element("shor"))]
    for k, word in enumerate(words):
        detectable("shor", word, k)
    return ops


def _decoder_op(code: str, gens, rng: random.Random) -> Op:
    """Decoder synthesis, checked by undoing one seeded error on a seeded state."""
    return Op(f"synthesize_decoder[{code},w1]", "decoder",
              (code, gens, rng.randrange(len(gens[0])), rng.choice("XYZ"), _haar_qubit(rng)))


def _noise_mix(rng: random.Random, n: int, depolarizing: int) -> tuple:
    """Seeded (kind, p) factors: `depolarizing` of the n qubits depolarize and
    the rest flip.  Factors of one kind share p, so they are one channel."""
    kinds = ["depolarizing"] * depolarizing + ["bitflip"] * (n - depolarizing)
    rng.shuffle(kinds)
    p = {kind: round(rng.uniform(0.01, 0.2), 6) for kind in ("depolarizing", "bitflip")}
    return tuple((kind, p[kind]) for kind in kinds)


# (qubits, depolarizing factors) of the product channels built in a round: from
# 0.6 ms (three bit flips) to 0.3 s (five depolarizing, 3,125 operators)
TENSOR_LADDER = ((3, 0), (3, 3), (4, 0), (4, 1), (4, 2), (4, 3), (4, 4), (5, 0), (5, 1),
                 (5, 2), (5, 3), (5, 4), (5, 5), (6, 0), (6, 1), (6, 2), (6, 3), (7, 0))


def _product_noise(rng: random.Random) -> list[Op]:
    ops = []
    for n, d in TENSOR_LADDER:
        admit_product(5 ** d * 2 ** (n - d), n)
        ops.append(Op(f"tensor_independent[n={n},d={d}]", "tensor", (_noise_mix(rng, n, d),)))
    for d in range(6):
        ops.append(Op(f"run_corrected[five,d={d}]", "run_corrected",
                      (_noise_mix(rng, 5, d), _haar_qubit(rng))))
    for n in (3, 4):
        for d in range(n + 1):
            ops.append(Op(f"entanglement_fidelity[n={n},d={d}]", "ent_fid",
                          (_noise_mix(rng, n, d),)))
    p_rep = round(rng.uniform(0.01, 0.3), 6)
    for k in range(2):
        ops.append(Op(f"run_exact[repetition3,{k}]", "run_exact", (p_rep, _haar_qubit(rng))))
    p_dep = round(rng.uniform(0.05, 0.3), 6)
    for n in (2, 3):   # the Haar-average estimator on a product, checked against d/(d+1)
        ops.append(Op(f"average_error_monte_carlo[depolarizing,n={n},2048]", "avg_mc",
                      (n, p_dep, 2048, rng.randrange(2 ** 32))))
    return ops


def _sampling(rng: random.Random) -> list[Op]:
    ops = []
    p_flip, p_dep = round(rng.uniform(0.01, 0.3), 6), round(rng.uniform(0.05, 0.3), 6)
    for k in range(11):   # 2^15 to 2^20 trials, 3 ms to 0.1 s
        trials = round(2 ** (15 + k / 2))
        ops.append(Op(f"run_monte_carlo[repetition3,{trials}]", "mc_rep3",
                      (p_flip, trials, rng.randrange(2 ** 32), _haar_qubit(rng))))
    for k in range(5):    # 2^14 to 2^18 trials
        trials = 2 ** (14 + k)
        ops.append(Op(f"run_monte_carlo[cyclic7,{trials}]", "mc_cyclic7",
                      (None, trials, rng.randrange(2 ** 32), _haar_qubit(rng))))
    ladder3 = tuple(round(2 ** (9 + k / 2)) for k in range(7))   # 25 ms to 0.2 s
    for n, ladder in ((1, (4096,)), (2, (4096,)), (3, ladder3)):
        for trials in ladder:
            ops.append(Op(f"average_error_monte_carlo[depolarizing,n={n},{trials}]", "avg_mc",
                          (n, p_dep, trials, rng.randrange(2 ** 32))))
    for count in (5, 10, 20, 40):
        vs = tuple(tuple(round(rng.gauss(0, 2.0), 9) for _ in range(3)) for _ in range(count))
        ops.append(Op(f"collective_rotation[{count}]", "rotations", (vs,)))
    return ops


def _cli_mix(rng: random.Random) -> list[Op]:
    # the four heaviest commands (demo five-qubit, simulate fivequbit,
    # --trials 4e6, --rotations 400: 0.8 to 0.9 s) are a seventh of the round,
    # so p90 falls inside their group, not at its edge where one sample moves it
    ops = [Op(f"cli:demo {d}", "cli", (("demo", d), "golden", d)) for d in DEMOS]
    ops.append(Op("cli:check weight1", "cli",
                  (("check", "--code", "fivequbit", "--errors", "weight1"), "check_weight1", None)))
    for k in range(2):
        letter, qubit = rng.choice("XYZ"), rng.randrange(1, 4)
        ops.append(Op(f"cli:check single {k}", "cli",
                      (("check", "--code", "repetition3", "--errors", f"{letter}{qubit}"),
                       "check_single", letter)))
    for k in range(2):
        code, alphabet, dist = rng.choice((("fivequbit", "XYZ", 3), ("repetition3", "XYZ", 1),
                                           ("repetition3", "X", 3)))
        ops.append(Op(f"cli:mindist {k}", "cli",
                      (("mindist", "--stabilizer", code, "--alphabet", alphabet), "mindist", dist)))
    p = round(rng.uniform(0.01, 0.3), 6)
    spec = f"independent n=3 bitflip p={p}"
    inp = rng.choice("01+-")
    ops.append(Op("cli:simulate exact", "cli",
                  (("simulate", "--code", "repetition3", "--channel", spec, "--input", inp),
                   "rep3_exact", (p, inp))))
    for trials in (100_000, 300_000, 1_000_000, 2_000_000, 4_000_000):   # 0.3 to 0.8 s
        ops.append(Op(f"cli:simulate trials {trials}", "cli",
                      (("simulate", "--code", "repetition3", "--channel", spec, "--input", inp,
                        "--trials", str(trials), "--seed", str(rng.randrange(2 ** 31))),
                       "rep3_mc", (p, inp))))
    p5 = round(rng.uniform(0.01, 0.2), 6)
    ops.append(Op("cli:simulate fivequbit", "cli",
                  (("simulate", "--code", "fivequbit", "--channel",
                    f"independent n=5 depolarizing p={p5}", "--input", rng.choice("01+")),
                   "five_bound", (("depolarizing", p5),) * 5)))
    for k in range(2):
        kind, pt = rng.choice(("depolarizing", "bitflip")), round(rng.uniform(0.0, 1.0), 6)
        ops.append(Op(f"cli:twirl {k}", "cli",
                      (("twirl", "--channel", f"{kind} p={pt}"), "twirl", (kind, pt))))
    for rotations in (100, 200, 300, 400):            # 0.4 to 0.8 s
        ops.append(Op(f"cli:noiseless {rotations}", "cli",
                      (("noiseless", "--rotations", str(rotations),
                        "--seed", str(rng.randrange(2 ** 31))), "noiseless", None)))
    pc, cc = rng.choice(("1e-3", "5e-3", "2e-2")), rng.choice(("30", "100"))
    ops.append(Op("cli:concat", "cli",
                  (("concat", "--p", pc, "--C", cc, "--levels", "4"), "concat", (pc, cc, 4))))
    return ops


_PLANS = {"cli-mix": _cli_mix, "stabilizer-kl": _stabilizer_kl,
          "product-noise": _product_noise, "sampling": _sampling}


def plan(workload: str, seed: int) -> list[Op]:
    """One round of the workload's ops, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _PLANS[workload](rng)
    rng.shuffle(ops)
    return ops


# --- fixtures -------------------------------------------------------------------


def setup(workload: str, ops: list[Op], root: str) -> dict:
    """Build what the ops share (codes, decoders, channels, references)."""
    import qecdesk.analysis as analysis
    import qecdesk.channels as channels
    import qecdesk.codes as codes
    import qecdesk.gf2_symplectic as gf2
    import qecdesk.pipelines as pipelines

    fx: dict = {"root": root}
    if workload == "cli-mix":
        gold = os.path.join(root, "tests", "goldens")
        fx["goldens"] = {}
        for d in DEMOS:
            with open(os.path.join(gold, f"demo_{d}.json"), "rb") as fh:
                fx["goldens"][d] = fh.read()
        fx["env"] = src_env(root)
    elif workload == "stabilizer-kl":
        for op in ops:
            code, gens = op.args[0], op.args[1]
            if ("stab", code) not in fx:
                stab = gf2.StabilizerGeneratorSet.from_strings(list(gens))
                fx[("stab", code)] = stab
                fx[("space", code)] = codes.stabilizer_codespace(stab)
    elif workload == "product-noise":
        for op in ops:
            if op.kind in ("run_corrected", "ent_fid"):
                fx[op.args[0]] = product_channel(op.args[0])
        _, space = codes.five_qubit()
        fx["five"] = space
        _, fx["recovery"] = analysis.synthesize_decoder(space, analysis.weight_le_errors(5, 1))
    elif workload == "sampling":
        fx["rep3"] = codes.repetition_quantum()
        fx["cyclic7"] = codes.cyclic7()
        fx["gauss7"] = channels.gaussian_shift(7)
        for op in ops:
            if op.kind == "mc_rep3" and "bitflip" not in fx:
                fx["bitflip"] = channels.tensor_independent(channels.bit_flip(op.args[0]), 3)
        for op in ops:
            if op.kind in ("mc_rep3", "mc_cyclic7"):
                ident, ch = _mc_pair(op, fx)
                fx[("exact", op.name)] = pipelines.run_exact(ident, ch, qubit_state(op.args[3]))
        fx["noiseless"] = analysis.build_noiseless_qubit().isometry.matrix
    for op in ops:
        if op.kind == "avg_mc" and ("dep", op.args[0]) not in fx:
            n, p = op.args[0], op.args[1]
            fx[("dep", n)] = channels.tensor_independent(channels.depolarizing(p), n)
    return fx


def import_seconds(root: str) -> float:
    """Wall time of `python -c "import qecdesk"` in a fresh process."""
    # With its output piped, subprocess sees the exit as the pipes close; with
    # no pipe and a timeout it polls every 50 ms, and times come in 50 ms steps.
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qecdesk"], env=src_env(root),
                   check=True, timeout=60, capture_output=True)
    return time.perf_counter() - t


def src_env(root: str) -> dict:
    """The environment with the checkout's `src/` first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def qubit_state(amps):
    import numpy as np
    from qecdesk.hilbert import StateVector

    return StateVector((2,), np.array([complex(re, im) for re, im in amps]))


# --- runners and checks ---------------------------------------------------------


def _pauli_apply(word: str, vecs):
    """Apply a phase-free Pauli word to the columns of vecs, qubit 1 leftmost."""
    import numpy as np
    single = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
              "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}
    n = len(word)
    t = vecs.reshape((2,) * n + (vecs.shape[1],))
    for j, c in enumerate(word):
        if c != "I":
            t = np.moveaxis(np.tensordot(single[c], t, axes=([1], [j])), 0, j)
    return t.reshape(vecs.shape)


def _run_codespace(op, fx):
    import qecdesk.codes as codes
    return codes.stabilizer_codespace(fx[("stab", op.args[0])])


def _check_codespace(op, fx, space):
    import numpy as np
    b = space.basis_matrix()
    _require(space.dim == 2, f"codespace dimension {space.dim}, want 2")
    _require(np.abs(b.conj().T @ b - np.eye(2)).max() <= ATOL, "basis not orthonormal")
    for g in op.args[1]:
        _require(np.abs(_pauli_apply(g, b) - b).max() <= 1e-8, f"{g} does not fix the code")


def _run_mindist_gf2(op, fx):
    return fx[("stab", op.args[0])].min_distance()


def _check_distance(op, fx, d):
    _require(d == 3, f"distance {d}, want 3")


def _run_correctable(op, fx):
    import qecdesk.analysis as analysis
    code, gens, weight, subset = op.args
    errors = analysis.weight_le_errors(len(gens[0]), weight)
    if subset is not None:
        errors = [errors[i] for i in subset]
    return analysis.correctable_quantum(fx[("space", code)], errors)


def _check_correctable(op, fx, verdict):
    code, gens, weight, subset = op.args
    n = len(gens[0])
    m = 1 + sum(math.comb(n, w) * 3 ** w for w in range(1, weight + 1))
    m = m if subset is None else len(subset)
    _require(len(verdict.labels) == m, f"{len(verdict.labels)} errors, want {m}")
    # weight<=1 sets are correctable on these distance-3 codes, and both codes
    # are non-degenerate there; a weight-2 error set is not correctable
    want = weight == 1
    _require(verdict.correctable == want, f"correctable={verdict.correctable}, want {want}")
    if want:
        _require(verdict.rank == m, f"rank {verdict.rank}, want {m}")


def _run_decoder(op, fx):
    import qecdesk.analysis as analysis
    code, gens = op.args[0], op.args[1]
    errors = analysis.weight_le_errors(len(gens[0]), 1)
    return analysis.synthesize_decoder(fx[("space", code)], errors)


def _check_decoder(op, fx, result):
    import numpy as np
    code, gens, qubit, letter, amps = op.args
    ident, recovery = result
    _require(ident.syndrome_dim == KL_RANK[code],
             f"syndrome dimension {ident.syndrome_dim}, want {KL_RANK[code]}")
    n = len(gens[0])
    word = "I" * qubit + letter + "I" * (n - qubit - 1)
    cmat = fx[("space", code)].basis_matrix()
    psi = cmat @ np.array([complex(re, im) for re, im in amps])
    hit = _pauli_apply(word, psi.reshape(-1, 1))
    rho = hit @ hit.conj().T
    out = sum(r @ rho @ r.conj().T for _, r in recovery.ops)
    want = np.outer(psi, psi.conj())
    _require(np.abs(out - want).max() <= 1e-8, f"recovery does not undo {word}")


def _run_mindist_dense(op, fx):
    import qecdesk.analysis as analysis
    return analysis.min_distance_quantum(fx[("space", op.args[0])])


def _run_detectable(op, fx):
    import qecdesk.analysis as analysis
    import qecdesk.gf2_symplectic as gf2
    word = gf2.PauliProduct.from_string(op.args[2]).dense()
    return analysis.detectable_quantum(fx[("space", op.args[0])], word)


def _check_detectable(op, fx, verdict):
    import qecdesk.gf2_symplectic as gf2
    stab = fx[("stab", op.args[0])]
    p = gf2.PauliProduct.from_string(op.args[2])
    want = not (stab.in_centralizer(p) and not stab.contains(p))
    _require(verdict.detectable == want,
             f"dense verdict {verdict.detectable}, GF(2) verdict {want}")


def product_channel(factors):
    """The product of the (kind, p) factors; tensor_independent when they agree."""
    import qecdesk.channels as channels

    def single(kind, p):
        return channels.depolarizing(p) if kind == "depolarizing" else channels.bit_flip(p)

    if len(set(factors)) == 1:
        return channels.tensor_independent(single(*factors[0]), len(factors))
    return channels.tensor_channels(*(single(*f) for f in factors))


def _kick(kind: str, p: float) -> float:
    """Probability that one factor applies a non-identity Pauli."""
    return 0.75 * p if kind == "depolarizing" else p


def _run_tensor(op, fx):
    return product_channel(op.args[0])


def _check_tensor(op, fx, ch):
    import numpy as np
    factors = op.args[0]
    n = len(factors)
    want_ops = math.prod(5 if kind == "depolarizing" else 2 for kind, _ in factors)
    _require(len(ch.ops) == want_ops, f"{len(ch.ops)} operators, want {want_ops}")
    _require(ch.dims == (2,) * n, f"dims {ch.dims}")
    a0 = ch.operator("0" * n)
    want = math.prod(math.sqrt(1.0 - p) for _, p in factors)
    _require(np.abs(a0 - want * np.eye(2 ** n)).max() <= ATOL, "no-error operator is wrong")


def _x_overlap(amps) -> float:
    (ar, ai), (br, bi) = amps
    a, b = complex(ar, ai), complex(br, bi)
    return abs((a.conjugate() * b + b.conjugate() * a)) ** 2


def _rep3_rows(p: float, x: float) -> dict:
    """Exact outcome rows of repetition3 under bitflip^3 for <psi|X|psi>^2 = x.

    Syndrome 00 holds no flip or all three; the other syndromes hold one flip
    or the complementary two, and the majority side flips the logical bit.
    """
    rows = {}
    for s in ("00", "01", "10", "11"):
        few, many = ((1 - p) ** 3, p ** 3) if s == "00" else (p * (1 - p) ** 2, p * p * (1 - p))
        rows[(s, "ok")] = few + many * x
        rows[(s, "err")] = many * (1 - x)
    return rows


def _run_exact(op, fx):
    import qecdesk.codes as codes
    import qecdesk.pipelines as pipelines
    p, amps = op.args
    channel = product_channel((("bitflip", p),) * 3)
    return pipelines.run_exact(codes.repetition_quantum(), channel, qubit_state(amps))


def _check_rows(report, want: dict, tol: float) -> None:
    got = {(s, l): p for s, l, p in report.outcomes}
    total = sum(got.values())
    _require(abs(total - 1.0) <= ATOL_REPORTED, f"outcome masses sum to {total}")
    for key, p in want.items():
        _require(abs(got.get(key, 0.0) - p) <= tol, f"row {key}: {got.get(key)} vs {p}")


def _check_exact(op, fx, report):
    p, amps = op.args
    _check_rows(report, _rep3_rows(p, _x_overlap(amps)), ATOL)


def _run_corrected(op, fx):
    import qecdesk.pipelines as pipelines
    factors, amps = op.args
    return pipelines.run_corrected(fx["five"], fx["recovery"], fx[factors], qubit_state(amps))


def _at_most_one_kick(factors) -> float:
    """Probability that at most one factor applies a non-identity Pauli."""
    qs = [_kick(*f) for f in factors]
    none = math.prod(1 - q for q in qs)
    return none + sum(q * none / (1 - q) for q in qs)


def _check_corrected(op, fx, report):
    _check_rows(report, {}, 0.0)
    floor = _at_most_one_kick(op.args[0])
    _require(report.metrics["success"] >= floor - ATOL,
             f"success {report.metrics['success']} below the weight<=1 floor {floor}")


def _run_ent_fid(op, fx):
    import qecdesk.fidelity as fidelity
    return fidelity.entanglement_fidelity(fx[op.args[0]])


def _check_ent_fid(op, fx, f):
    # F_e of one factor is 1 - 3p/4 (depolarizing) or 1 - p (bit flip)
    want = math.prod(1.0 - _kick(*f) for f in op.args[0])
    _require(abs(f - want) <= ATOL, f"F_e = {f}, product of factors {want}")


def _mc_pair(op, fx):
    if op.kind == "mc_rep3":
        return fx["rep3"], fx["bitflip"]
    return fx["cyclic7"], fx["gauss7"]


def _run_mc(op, fx):
    import qecdesk.pipelines as pipelines
    _, trials, seed, amps = op.args
    ident, ch = _mc_pair(op, fx)
    return pipelines.run_monte_carlo(ident, ch, qubit_state(amps), trials, seed=seed)


def _check_mc(op, fx, report):
    exact = {(s, l): p for s, l, p in fx[("exact", op.name)].outcomes}
    if op.kind == "mc_rep3":
        want = _rep3_rows(op.args[0], _x_overlap(op.args[3]))
        for key, p in want.items():
            _require(abs(exact[key] - p) <= ATOL, f"exact row {key}: {exact[key]} vs {p}")
    n = report.trials
    for s, l, f in report.outcomes:
        p = exact.get((s, l), 0.0)
        tol = MC_SIGMAS * math.sqrt(max(p * (1 - p), 0.0) / n) + 1.0 / n
        _require(abs(f - p) <= tol, f"row {(s, l)}: frequency {f} vs exact {p}")


def _run_avg_mc(op, fx):
    import qecdesk.fidelity as fidelity
    n, _, trials, seed = op.args
    return fidelity.average_error_monte_carlo(fx[("dep", n)], trials, seed=seed)


def _check_avg_mc(op, fx, est):
    n, p = op.args[0], op.args[1]
    d = 2 ** n
    want = d / (d + 1.0) * (1.0 - (1.0 - 0.75 * p) ** n)
    _require(abs(est.mean - want) <= MC_SIGMAS * est.std_error + ATOL,
             f"Haar-average error {est.mean} +- {est.std_error}, d/(d+1)(1-F_e) = {want}")


def _run_rotations(op, fx):
    """The verification loop of `qecdesk noiseless`, over seeded rotations."""
    import qecdesk.channels as channels
    import numpy as np
    wb = fx["noiseless"]
    worst = 0.0
    for v in op.args[0]:
        u = channels.collective_rotation(v).operator("rot")
        sub = wb.conj().T @ u @ wb
        worst = max(worst, float(np.abs(u @ wb - wb @ sub).max()))
        t = sub.reshape(2, 2, 2, 2)
        for s in range(2):
            for sp in range(2):
                block = t[s, :, sp, :]
                worst = max(worst, float(np.abs(block - np.trace(block) / 2.0 * np.eye(2)).max()))
    return worst


def _check_rotations(op, fx, worst):
    _require(worst <= 1e-8, f"collective rotation leaks or acts on the logical qubit: {worst}")


# --- the CLI ops ------------------------------------------------------------------


def cli_argv(root: str, argv, traced: bool) -> list[str]:
    if traced:
        return [sys.executable, os.path.join(root, "bench", "cli_traced.py"), *argv]
    return [sys.executable, "-m", "qecdesk.cli", *argv]


def run_cli(op, fx):
    """One fresh `python -m qecdesk.cli` process (traced if fx["cli_traced"])."""
    return subprocess.run(cli_argv(fx["root"], op.args[0], fx.get("cli_traced", False)),
                          env=fx["env"], capture_output=True, timeout=CLI_TIMEOUT_S)


def _loads(out: bytes) -> dict:
    return json.loads(out.decode())


def check_cli(op, fx, proc):
    argv, how, want = op.args
    out = proc.stdout
    code = proc.returncode
    if how == "golden":
        _require(code == 0, f"exit {code}")
        _require(out == fx["goldens"][want], "demo output differs from its golden")
        return
    if how == "check_weight1":
        d = _loads(out)
        _require(code == 0 and d["correctable"] and d["rank"] == 16, "weight1 verdict")
        _require(d["decoder"] == {"syndrome_dim": 16, "logical_dim": 2, "recovery_ops": 16},
                 f"decoder {d['decoder']}")
    elif how == "check_single":
        d = _loads(out)
        detectable = want != "Z"
        _require(d["detectable"] == detectable and code == (0 if detectable else 1),
                 f"verdict {d['detectable']} exit {code}")
    elif how == "mindist":
        _require(code == 0 and _loads(out)["distance"] == want, "distance")
    elif how in ("rep3_exact", "rep3_mc"):
        p, inp = want
        d = _loads(out)
        _require(code == 0, f"exit {code}")
        rows = _rep3_rows(p, 1.0 if inp in "+-" else 0.0)
        got = {(r["syndrome"], r["logical"]): r["p"] for r in d["outcomes"]}
        _require(abs(sum(got.values()) - 1.0) <= ATOL_REPORTED, "outcome masses")
        n = d.get("trials")
        for key, p_row in rows.items():
            tol = (ATOL if n is None else
                   MC_SIGMAS * math.sqrt(p_row * (1 - p_row) / n) + 1.0 / n)
            _require(abs(got.get(key, 0.0) - p_row) <= tol, f"row {key}")
    elif how == "five_bound":
        d = _loads(out)
        total = sum(r["p"] for r in d["outcomes"])
        _require(code == 0 and abs(total - 1.0) <= ATOL_REPORTED, "outcome masses")
        _require(d["metrics"]["success"] >= _at_most_one_kick(want) - 1e-8, "success floor")
    elif how == "twirl":
        kind, p = want
        d = _loads(out)
        if kind == "depolarizing":
            probs = {"I": 1 - 0.75 * p, "X": p / 4, "Y": p / 4, "Z": p / 4}
        else:
            probs = {"I": 1 - p, "X": p, "Y": 0.0, "Z": 0.0}
        _require(code == 0, f"exit {code}")
        for u, v in probs.items():
            _require(abs(d["probs"][u] - v) <= ATOL, f"twirl {u}")
    elif how == "noiseless":
        d = _loads(out)
        _require(code == 0 and min(d["overlaps"]) >= 1 - 1e-8
                 and d["max_rotation_leakage"] <= 1e-8, "three-spin qubit")
    elif how == "concat":
        pc, cc, levels = want
        p, c = Fraction(pc), Fraction(cc)
        d = _loads(out)
        lv = [round(float(c ** (2 ** j - 1) * p ** (2 ** j)), 10) for j in range(levels)]
        _require(d["levels"] == lv, f"levels {d['levels']} vs {lv}")
        _require(code == (0 if p < 1 / c else 1), f"exit {code}")
    else:
        raise ValueError(f"unknown CLI check {how!r}")


KINDS = {
    "codespace": (_run_codespace, _check_codespace),
    "mindist_gf2": (_run_mindist_gf2, _check_distance),
    "correctable": (_run_correctable, _check_correctable),
    "decoder": (_run_decoder, _check_decoder),
    "mindist_dense": (_run_mindist_dense, _check_distance),
    "detectable": (_run_detectable, _check_detectable),
    "tensor": (_run_tensor, _check_tensor),
    "run_exact": (_run_exact, _check_exact),
    "run_corrected": (_run_corrected, _check_corrected),
    "ent_fid": (_run_ent_fid, _check_ent_fid),
    "mc_rep3": (_run_mc, _check_mc),
    "mc_cyclic7": (_run_mc, _check_mc),
    "avg_mc": (_run_avg_mc, _check_avg_mc),
    "rotations": (_run_rotations, _check_rotations),
    "cli": (run_cli, check_cli),
}
