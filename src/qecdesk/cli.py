"""Command-line front end: analysis checks, simulations, and canned demos.

Exit codes: 0 on success, 1 when an analysis verdict is negative, 2 when a
simulation is dominated by detection failure, 64 on usage or parse errors.
Every subcommand takes --table and --out FILE.  Output is JSON (floats
rounded to ten decimals so identical invocations are byte-identical, never
NaN or Infinity); --table switches to a plain rendering and --out writes to
a file instead of stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import analysis, channels, codes, pipelines
from .gf2_symplectic import PauliProduct, SearchCapExceeded, identity_word, single_qubit_word
from .hilbert import ATOL_ALGEBRA, StateVector, basis_state, vector_from_json

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _round(obj, ndigits=10):
    if isinstance(obj, float):
        # float() first: round() of an np.float64 stays an np.float64
        return round(float(obj), ndigits) + 0.0  # -0.0 + 0.0 is 0.0
    if isinstance(obj, dict):
        return {k: _round(v, ndigits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round(v, ndigits) for v in obj]
    return obj


def _emit(payload: dict, args) -> None:
    payload = _round(payload)
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if getattr(args, "table", False):
        lines = []
        for k, v in payload.items():
            if k == "outcomes":
                lines.append("outcomes:")
                for row in v:
                    lines.append(
                        f"  {row['syndrome']:>6}  {row['logical']:>4}  {row['p']:.6f}"
                    )
            elif isinstance(v, dict):
                lines.append(f"{k}:")
                for kk, vv in v.items():
                    lines.append(f"  {kk} = {vv}")
            else:
                lines.append(f"{k} = {v}")
        text = "\n".join(lines) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_code(spec: str) -> codes.CodeDefinition:
    if os.path.exists(spec):
        with open(spec) as fh:
            return codes.parse_code_text(fh.read(), name=os.path.basename(spec))
    return codes.builtin_code(spec)


def _qubits(definition: codes.CodeDefinition, what: str) -> int:
    """The code's number of qubits; `what` needs qubits, so other dims are refused."""
    dims = definition.subspace.physical_dims
    if any(d != 2 for d in dims):
        raise ValueError(f"{what}, but code {definition.name!r} has physical dims "
                         f"{list(dims)}, not qubits")
    return len(dims)


def _parse_errors(spec: str, definition: codes.CodeDefinition):
    n = _qubits(definition, "--errors takes Pauli words")
    if spec.startswith("weight"):
        if not spec[len("weight"):].isdecimal():
            raise ValueError(f"--errors weightN needs a whole number N >= 0, got {spec!r}")
        weight = int(spec[len("weight"):])
        analysis.admit_error_count(definition.subspace, analysis.weight_le_count(n, weight))
        return analysis.weight_le_words(n, weight)
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"--errors {spec!r} has an empty entry")
        if token == "I":
            out.append(("I", identity_word(n)))
        elif len(token) >= 2 and token[0] in "XYZ" and token[1:].isdecimal():
            q = int(token[1:])
            if not 1 <= q <= n:
                raise ValueError(f"--errors {token}: qubits are numbered 1..{n}")
            out.append((token, single_qubit_word(n, q - 1, token[0])))
        else:
            try:
                out.append((token, PauliProduct.from_string(token)))
            except ValueError as exc:
                raise ValueError(f"--errors {token}: {exc}") from None
    return out


def _arg_type(convert, ok, what: str):
    """argparse type: convert(text), refused as not `what` unless ok(value)."""
    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError):
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
        return value
    return parse


_threshold = _arg_type(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_count = _arg_type(int, lambda v: v >= 0, "a whole number >= 0")
# exact: 1e-3 and 1/1000 both give Fraction(1, 1000); nan and inf do not parse
_fraction = _arg_type(Fraction, lambda v: True, "a finite decimal or fraction")
_seed = _arg_type(int, lambda v: 0 <= v < 2 ** 128, "a Philox key, a whole number < 2**128")


def _parse_input(token: str, dim: int) -> StateVector:
    if token == "+" and dim == 2:
        return pipelines.PLUS
    if token == "-" and dim == 2:
        return StateVector((2,), np.array([1.0, -1.0]) / math.sqrt(2.0))
    bad = f"--input {token} for a code of dimension {dim}: "
    usage = (f"{bad}needs a basis index below {dim}, +, -, or a JSON list of "
             f"{dim} finite amplitudes or [re, im] pairs")
    try:
        if token.isdecimal() and int(token) < dim:
            return basis_state((dim,), int(token))
        data = json.loads(token)
    except (ValueError, RecursionError):
        # not JSON, integers past int()'s digit limit, lists nested past the
        # recursion limit
        raise ValueError(usage) from None
    try:
        vec = vector_from_json(data)
    except ValueError as exc:
        raise ValueError(f"{bad}{exc}") from None
    if vec.shape != (dim,):
        raise ValueError(usage)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vec))
    if not ATOL_ALGEBRA <= norm < math.inf:
        raise ValueError(f"{bad}amplitudes of norm {norm} cannot be normalized")
    return StateVector((dim,), vec / norm)


def _input_desc(token: str) -> str:
    return {"0": "|0>", "1": "|1>", "+": "(|0>+|1>)/sqrt2",
            "-": "(|0>-|1>)/sqrt2"}.get(token, token)


# --- subcommands ---------------------------------------------------------------


def cmd_check(args) -> int:
    definition = _load_code(args.code)
    errors = _parse_errors(args.errors, definition)
    if len(errors) == 1 and not args.errors.startswith("weight"):
        label, e = errors[0]
        verdict = analysis.detectable_quantum(definition.subspace, e)
        payload = {"code": definition.name, "error": label, **verdict.to_json()}
        _emit(payload, args)
        return 0 if verdict.detectable else 1
    verdict = analysis.correctable_quantum(definition.subspace, errors)
    payload = {"code": definition.name, "errors": list(verdict.labels),
               **verdict.to_json()}
    if verdict.correctable:
        # one syndrome block, a copy of the code, per nonzero eigenvalue of
        # lambda: decoder_identification keeps verdict.rank of them.  The
        # recovery adds a "fail" operator if the blocks leave room
        rank, k = verdict.rank, definition.subspace.dim
        payload["decoder"] = {
            "syndrome_dim": rank,
            "logical_dim": k,
            "recovery_ops": rank + (rank * k < definition.subspace.physical_dim),
        }
    _emit(payload, args)
    return 0 if verdict.correctable else 1


def cmd_mindist(args) -> int:
    definition = _load_code(args.stabilizer)
    if definition.stabilizers is None:
        raise ValueError(f"code {definition.name!r} has no stabilizer generators")
    payload = {"code": definition.name, "alphabet": args.alphabet}
    try:
        payload["distance"] = definition.stabilizers.min_distance(alphabet=args.alphabet,
                                                                  cap=args.cap)
    except SearchCapExceeded as exc:
        payload.update(distance=None, exceeds_cap=exc.cap)
    _emit(payload, args)
    return 0


def _weight1_decoder(definition: codes.CodeDefinition):
    """(decoder, verdict) for the set of every weight-1 Pauli error."""
    n = _qubits(definition, "simulate decodes weight-1 Pauli errors")
    verdict = analysis.correctable_quantum(definition.subspace, analysis.weight_le_words(n, 1))
    if not verdict.correctable:
        raise ValueError(f"code {definition.name!r} cannot correct every weight-1 Pauli error")
    return analysis.decoder_identification(definition.subspace, verdict), verdict


def cmd_simulate(args) -> int:
    definition = _load_code(args.code)
    code = definition.subspace  # a bad code is refused before a bad channel
    channel = channels.parse_channel_spec(args.channel)
    decoder = definition.identification or _weight1_decoder(definition)[0]
    state = _parse_input(args.input, code.dim)
    named = dict(scenario=definition.name, input_desc=_input_desc(args.input))
    if args.trials:
        report = pipelines.run_monte_carlo(decoder, channel, state, args.trials,
                                           seed=args.seed, code=code, **named)
    else:
        report = pipelines.run_corrected(code, decoder, channel, state, **named)
    _emit(report.to_json(), args)
    return 2 if report.metrics.get("fail", 0.0) > args.fail_threshold else 0


def cmd_twirl(args) -> int:
    ch = channels.parse_channel_spec(args.channel)
    pch = channels.twirl(ch)
    probs = {u: pch.probability(u) for u in "IXYZ"}
    s = probs["X"] + probs["Y"] + probs["Z"]
    payload = {"channel": args.channel, "probs": probs,
               "depolarizing_p": 4.0 * s / 3.0}
    _emit(payload, args)
    return 0


# rotations checked per stack: 64 unitaries of 8 x 8 are 64 KiB, and no
# temporary of the check is larger; stacks of 1,024 raised the peak RSS of
# `noiseless --rotations 400` by 2 MiB
_ROTATIONS_PER_STACK = 64


def cmd_noiseless(args) -> int:
    built = analysis.build_noiseless_qubit()
    printed = codes.three_spin_noiseless()
    wb, wp = built.isometry.matrix, printed.isometry.matrix
    overlaps = [abs(np.vdot(wp[:, c], wb[:, c])) for c in range(4)]
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    max_leak = 0.0
    max_block_dev = 0.0
    for start in range(0, args.rotations, _ROTATIONS_PER_STACK):
        # (r, 3) draws are the stream of r draws of size 3
        vs = rng.normal(scale=2.0, size=(min(_ROTATIONS_PER_STACK, args.rotations - start), 3))
        u = channels.collective_rotations(vs)
        sub = wb.conj().T @ u @ wb
        max_leak = max(max_leak, float(np.abs(u @ wb - wb @ sub).max()))
        # each (syndrome, syndrome') block must be lambda I on the logical
        # qubit; rows of the (2r, 2, 2, 2) stack run over (rotation, syndrome)
        max_block_dev = max(max_block_dev, analysis.kl_residual(sub.reshape(-1, 2, 2, 2))[1])
    jz = 2.0 * channels.collective_spin("Z").matrix
    jx = 2.0 * channels.collective_spin("X").matrix
    sz = PauliProduct.from_string("ZI").dense()
    sx = PauliProduct.from_string("XI").dense()
    jz_dev = float(np.abs(wb.conj().T @ jz @ wb - sz).max())
    jx_dev = float(np.abs(wb.conj().T @ jx @ wb - sx).max())
    payload = {
        "overlaps": overlaps,
        "max_rotation_leakage": max_leak,
        "max_logical_block_deviation": max_block_dev,
        "jz_as_syndrome_z_deviation": jz_dev,
        "jx_as_syndrome_x_deviation": jx_dev,
        "rotations": args.rotations,
        "seed": args.seed,
    }
    _emit(payload, args)
    ok = (min(overlaps) >= 1.0 - 1e-8 and max_leak <= 1e-8
          and max_block_dev <= 1e-8 and jz_dev <= 1e-8 and jx_dev <= 1e-8)
    return 0 if ok else 1


def cmd_concat(args) -> int:
    result = pipelines.concat_recursion(args.p, args.C, args.levels, args.block)
    _emit(result.to_json(), args)
    return 0 if result.improving else 1


def cmd_demo(args) -> int:
    name = args.name
    if name == "trivial2":
        ident = codes.trivial_two_qubit()
        noisy = channels.tensor_channels(channels.depolarizing(1.0),
                                         channels.identity_channel((2,)))
        report = pipelines.run_exact(ident, noisy, pipelines.PLUS,
                                     scenario="trivial2",
                                     input_desc="(|0>+|1>)/sqrt2")
        _emit(report.to_json(), args)
        return 0
    if name == "repetition-classical":
        rep = codes.repetition_classical()
        failure = codes.repetition_failure_probability(Fraction(1, 4))
        payload = {
            "scenario": "repetition-classical",
            "identification": {w: list(sl) for w, sl in sorted(rep.identification.items())},
            "decode": dict(sorted(rep.decode.items())),
            "failure_probability_at_p_0.25": float(failure),
        }
        _emit(payload, args)
        return 0
    if name == "repetition-quantum":
        ident = codes.repetition_quantum()
        noisy = channels.tensor_independent(channels.bit_flip(0.25), 3)
        report = pipelines.run_exact(ident, noisy, basis_state((2,), 0),
                                     scenario="repetition-quantum",
                                     input_desc="|0>")
        _emit(report.to_json(), args)
        return 0
    if name == "cyclic7":
        report = pipelines.run_cyclic()
        _emit(report.to_json(), args)
        return 2 if report.metrics["fail"] > args.fail_threshold else 0
    if name == "three-spin":
        ns = argparse.Namespace(seed=0, rotations=100, table=args.table,
                                out=getattr(args, "out", None))
        return cmd_noiseless(ns)
    if name == "five-qubit":
        five = codes.builtin_code("fivequbit")
        decoder, verdict = _weight1_decoder(five)
        noisy = channels.tensor_independent(channels.depolarizing(0.1), 5)
        report = pipelines.run_corrected(five.subspace, decoder, noisy, pipelines.PLUS,
                                         scenario="five-qubit",
                                         input_desc="(|0>+|1>)/sqrt2")
        payload = report.to_json()
        payload["correctable_weight1"] = verdict.correctable
        payload["lambda_rank"] = verdict.rank
        payload["distance"] = five.stabilizers.min_distance()
        _emit(payload, args)
        return 0
    if name == "parity2":
        table = codes.parity_identification()
        flip_both = analysis.classical_flip_map(2, (1, 2))
        parity_kept = all(table[w][1] == table[flip_both[w]][1] for w in table)
        payload = {
            "scenario": "parity2",
            "identification": {w: list(sl) for w, sl in sorted(table.items())},
            "flip_both_preserves_parity": parity_kept,
        }
        _emit(payload, args)
        return 0
    raise ValueError(f"unknown demo {name!r}")


DEMO_NAMES = ("trivial2", "repetition-classical", "repetition-quantum",
              "cyclic7", "three-spin", "five-qubit", "parity2")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qecdesk",
                     description="desk-scale error correction workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--table", action="store_true", help="plain-text output")
        p.add_argument("--out", help="write output to a file")

    p = sub.add_parser("check", parents=[], help="detectability/correctability")
    p.add_argument("--code", required=True, help="builtin name or definition file")
    p.add_argument("--errors", required=True,
                   help="weightN, or comma list like Z1,X2 or XZZXI; a word with a "
                        "leading sign needs the = form, --errors=-iXZZXI")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("mindist", help="minimum distance of a stabilizer code")
    p.add_argument("--stabilizer", required=True, help="builtin name or file")
    p.add_argument("--alphabet", default="XYZ")
    p.add_argument("--cap", type=_count, default=5)
    common(p)
    p.set_defaults(func=cmd_mindist)

    p = sub.add_parser("simulate", help="run an encode/noise/decode pipeline")
    p.add_argument("--code", required=True)
    p.add_argument("--channel", required=True, help="e.g. 'independent n=3 bitflip p=0.25'")
    p.add_argument("--input", default="0")
    p.add_argument("--trials", type=_count, default=0, help="0 = exact")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--fail-threshold", type=_threshold, default=0.5)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("twirl", help="random-Pauli shadow of a channel")
    p.add_argument("--channel", required=True)
    common(p)
    p.set_defaults(func=cmd_twirl)

    p = sub.add_parser("noiseless", help="derive and verify the three-spin qubit")
    p.add_argument("--rotations", type=_count, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    common(p)
    p.set_defaults(func=cmd_noiseless)

    p = sub.add_parser("concat", help="concatenation level arithmetic")
    p.add_argument("--p", type=_fraction, required=True)
    p.add_argument("--C", type=_fraction, required=True)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--block", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_concat)

    p = sub.add_parser("demo", help="canned worked examples")
    p.add_argument("name", choices=DEMO_NAMES)
    p.add_argument("--fail-threshold", type=_threshold, default=0.5)
    common(p)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"qecdesk: error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
