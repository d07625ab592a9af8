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

import numpy as np

from . import analysis, channels, codes, pipelines
from .gf2_symplectic import PauliProduct, SearchCapExceeded, identity_word, single_qubit_word
from .hilbert import StateVector, basis_state

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _round(obj, ndigits=10):
    if isinstance(obj, float):
        return round(obj, ndigits) + 0.0  # -0.0 + 0.0 is 0.0
    if isinstance(obj, dict):
        return {k: _round(v, ndigits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round(v, ndigits) for v in obj]
    return obj


def _emit(payload: dict, args) -> None:
    text = json.dumps(_round(payload), indent=2, allow_nan=False) + "\n"
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


def _parse_errors(spec: str, definition: codes.CodeDefinition):
    dims = definition.subspace.physical_dims
    if any(d != 2 for d in dims):
        raise ValueError(f"--errors takes Pauli words, but code {definition.name!r} "
                         f"has physical dims {list(dims)}, not qubits")
    n = len(dims)
    if spec.startswith("weight"):
        if not spec[len("weight"):].isdecimal():
            raise ValueError(f"--errors weightN needs a whole number N >= 0, got {spec!r}")
        return analysis.weight_le_errors(n, int(spec[len("weight"):]))
    out = []
    for token in spec.split(","):
        token = token.strip()
        if token == "I":
            out.append(("I", identity_word(n)))
        elif len(token) >= 2 and token[0] in "XYZ" and token[1:].isdigit():
            q = int(token[1:])
            out.append((token, single_qubit_word(n, q - 1, token[0])))
        else:
            out.append((token, PauliProduct.from_string(token)))
    return out


def _arg_type(convert, ok, what: str):
    """argparse type: convert(text), refused as not `what` unless ok(value)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
        return value
    return parse


_finite_float = _arg_type(float, math.isfinite, "a finite number")
_count = _arg_type(int, lambda v: v >= 0, "a whole number >= 0")


def _parse_input(token: str, dim: int) -> StateVector:
    if token == "+" and dim == 2:
        return pipelines.PLUS
    if token == "-" and dim == 2:
        return StateVector((2,), np.array([1.0, -1.0]) / math.sqrt(2.0))
    if token.isdigit() and int(token) < dim:
        return basis_state((dim,), int(token))
    amps = np.asarray(json.loads(token), dtype=float)
    if not np.isfinite(amps).all():
        raise ValueError(f"--input has a non-finite amplitude: {token}")
    if amps.ndim == 2 and amps.shape[1] == 2:
        vec = amps[:, 0] + 1j * amps[:, 1]
    else:
        vec = amps.astype(complex)
    return StateVector((dim,), vec).normalized()


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
        ident, recovery = analysis.synthesize_decoder(definition.subspace, errors)
        payload["decoder"] = {
            "syndrome_dim": ident.syndrome_dim,
            "logical_dim": ident.logical_dim,
            "recovery_ops": len(recovery.ops),
        }
    _emit(payload, args)
    return 0 if verdict.correctable else 1


def cmd_mindist(args) -> int:
    if os.path.exists(args.stabilizer):
        with open(args.stabilizer) as fh:
            stab = codes.parse_stabilizer_text(fh.read())
        name = os.path.basename(args.stabilizer)
    else:
        definition = codes.builtin_code(args.stabilizer)
        if definition.stabilizers is None:
            raise ValueError(f"code {args.stabilizer!r} has no stabilizer generators")
        stab = definition.stabilizers
        name = args.stabilizer
    try:
        d = stab.min_distance(alphabet=args.alphabet, cap=args.cap)
        payload = {"code": name, "alphabet": args.alphabet, "distance": d}
        _emit(payload, args)
        return 0
    except SearchCapExceeded as exc:
        payload = {"code": name, "alphabet": args.alphabet,
                   "distance": None, "exceeds_cap": exc.cap}
        _emit(payload, args)
        return 0


def cmd_simulate(args) -> int:
    definition = _load_code(args.code)
    channel = channels.parse_channel_spec(args.channel)
    if definition.identification is not None:
        ident = definition.identification
        state = _parse_input(args.input, ident.logical_dim)
        if args.trials:
            report = pipelines.run_monte_carlo(
                ident, channel, state, args.trials, seed=args.seed,
                scenario=definition.name, input_desc=_input_desc(args.input))
        else:
            report = pipelines.run_exact(
                ident, channel, state,
                scenario=definition.name, input_desc=_input_desc(args.input))
    else:
        n = len(definition.subspace.physical_dims)
        errors = analysis.weight_le_errors(n, 1)
        _, recovery = analysis.synthesize_decoder(definition.subspace, errors)
        state = _parse_input(args.input, definition.subspace.dim)
        if args.trials:
            raise ValueError(f"code {definition.name!r} supports exact simulation only")
        report = pipelines.run_corrected(
            definition.subspace, recovery, channel, state,
            scenario=definition.name, input_desc=_input_desc(args.input))
    _emit(report.to_json(ndigits=10), args)
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


def cmd_noiseless(args) -> int:
    built = analysis.build_noiseless_qubit()
    printed = codes.three_spin_noiseless()
    wb, wp = built.isometry.matrix, printed.isometry.matrix
    overlaps = [abs(np.vdot(wp[:, c], wb[:, c])) for c in range(4)]
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    max_leak = 0.0
    max_block_dev = 0.0
    for _ in range(args.rotations):
        v = tuple(rng.normal(scale=2.0, size=3))
        u = channels.collective_rotation(v).operator("rot")
        sub = wb.conj().T @ u @ wb
        leak = float(np.abs(u @ wb - wb @ sub).max())
        t = sub.reshape(2, 2, 2, 2)
        dev = 0.0
        for s in range(2):
            for sp in range(2):
                block = t[s, :, sp, :]
                m = np.trace(block) / 2.0
                dev = max(dev, float(np.abs(block - m * np.eye(2)).max()))
        max_leak = max(max_leak, leak)
        max_block_dev = max(max_block_dev, dev)
    jz = 2.0 * channels.collective_spin("Z").matrix
    jx = 2.0 * channels.collective_spin("X").matrix
    sz = np.kron(np.array([[1, 0], [0, -1]]), np.eye(2))
    sx = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
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
        _emit(report.to_json(ndigits=10), args)
        return 0
    if name == "repetition-classical":
        rep = codes.repetition_classical()
        from fractions import Fraction
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
        _emit(report.to_json(ndigits=10), args)
        return 0
    if name == "cyclic7":
        report = pipelines.run_cyclic()
        _emit(report.to_json(ndigits=10), args)
        return 2 if report.metrics["fail"] > args.fail_threshold else 0
    if name == "three-spin":
        ns = argparse.Namespace(seed=0, rotations=100, table=args.table,
                                out=getattr(args, "out", None))
        return cmd_noiseless(ns)
    if name == "five-qubit":
        stab, space = codes.five_qubit()
        errors = analysis.weight_le_errors(5, 1)
        verdict = analysis.correctable_quantum(space, errors)
        _, recovery = analysis.synthesize_decoder(space, errors)
        noisy = channels.tensor_independent(channels.depolarizing(0.1), 5)
        report = pipelines.run_corrected(space, recovery, noisy, pipelines.PLUS,
                                         scenario="five-qubit",
                                         input_desc="(|0>+|1>)/sqrt2")
        payload = report.to_json(ndigits=10)
        payload["correctable_weight1"] = verdict.correctable
        payload["lambda_rank"] = verdict.rank
        payload["distance"] = stab.min_distance()
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
                   help="weightN, or comma list like Z1,X2 or XZZXI")
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
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--fail-threshold", type=_finite_float, default=0.5)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("twirl", help="random-Pauli shadow of a channel")
    p.add_argument("--channel", required=True)
    common(p)
    p.set_defaults(func=cmd_twirl)

    p = sub.add_parser("noiseless", help="derive and verify the three-spin qubit")
    p.add_argument("--rotations", type=_count, default=100)
    p.add_argument("--seed", type=_count, default=0)
    common(p)
    p.set_defaults(func=cmd_noiseless)

    p = sub.add_parser("concat", help="concatenation level arithmetic")
    p.add_argument("--p", required=True)
    p.add_argument("--C", required=True)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--block", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_concat)

    p = sub.add_parser("demo", help="canned worked examples")
    p.add_argument("name", choices=DEMO_NAMES)
    p.add_argument("--fail-threshold", type=_finite_float, default=0.5)
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
