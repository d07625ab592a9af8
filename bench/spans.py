"""Spans around calls into the public functions of each qecdesk module.

The tracer rebinds module attributes and class methods from outside the
package.  That catches calls made through a module's globals, through
`module.fn` attribute access and through methods; a call bound earlier with
`from .x import y` is not rebound and shows up in its caller's self time.

Spans are aggregated as they close: a span's self time is its duration minus
the time covered by its direct child spans.  The program is single-threaded,
so spans nest strictly and no layer has a queue to wait in.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "codes", "analysis", "gf2_symplectic", "channels",
          "fidelity", "pipelines", "hilbert")

# Accessors called once per qubit inside other traced methods; a span on each
# would cost more than the work it measures.
UNTRACED = frozenset({"gf2_symplectic.symbol"})


def _layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Per-span-name totals (calls, self time, errors) plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.totals: dict[str, list] = {}   # name -> [calls, self_s, errors]
        self.counters: dict[str, float] = {}
        self.active = True                  # False: wrappers call straight through
        self._stack: list[list] = []        # [name, start, child_time]
        self._undo: list = []

    # --- recording ----------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self, error: bool = False) -> float:
        """Close the innermost span and return its duration."""
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        row = self.totals.setdefault(name, [0, 0.0, 0])
        row[0] += 1
        row[1] += dur - child
        row[2] += int(error)
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def parent_layer(self) -> str | None:
        """Layer of the span enclosing the one being recorded, if any."""
        return _layer_of(self._stack[-2][0]) if len(self._stack) > 1 else None

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0.0), value)

    def merge(self, totals: dict, counters: dict) -> None:
        """Fold in totals recorded by another process (a traced CLI child)."""
        for name, (calls, self_s, errors) in totals.items():
            row = self.totals.setdefault(name, [0, 0.0, 0])
            row[0] += calls
            row[1] += self_s
            row[2] += errors
        for name, value in counters.items():
            if name == "codes.physical_dim_max":
                self.peak(name, value)
            else:
                self.count(name, value)

    def dump(self) -> dict:
        return {"totals": self.totals, "counters": self.counters}

    # --- installation -------------------------------------------------------

    def _wrap(self, span_name: str, fn):
        tracer = self
        hook = COUNTERS.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit(error=True)
                raise
            if hook is not None:
                hook(tracer, args, kwargs, result)
            tracer.exit()
            return result

        return traced

    def install(self) -> None:
        """Rebind every public function and method of the LAYERS modules."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            module = importlib.import_module(f"qecdesk.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._patch(module, name, obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    self._install_methods(layer, obj)

    def _install_methods(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            span_name = f"{layer}.{name}"
            if name.startswith("_") or span_name in UNTRACED:
                continue
            if inspect.isfunction(attr):
                self._patch(cls, name, attr, span_name)
            elif isinstance(attr, (classmethod, staticmethod)):
                wrapped = type(attr)(self._wrap(span_name, attr.__func__))
                self._undo.append((cls, name, attr))
                setattr(cls, name, wrapped)

    def _patch(self, owner, name: str, fn, span_name: str) -> None:
        self._undo.append((owner, name, fn))
        setattr(owner, name, self._wrap(span_name, fn))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


# --- counters recorded at span boundaries ------------------------------------


def _kraus_built(tracer: Tracer, args, kwargs, result) -> None:
    # count a channel once, where it leaves the channels layer
    if not hasattr(result, "ops") or tracer.parent_layer() == "channels":
        return
    d = result.dim
    tracer.count("channels.kraus_ops_built", len(result.ops))
    tracer.count("channels.kraus_bytes_built", len(result.ops) * d * d * 16)


def _physical_dim(tracer: Tracer, args, kwargs, result) -> None:
    items = result if isinstance(result, tuple) else (result,)
    for item in items:
        item = getattr(item, "subspace", item)
        if hasattr(item, "physical_dim"):
            tracer.peak("codes.physical_dim_max", item.physical_dim)


def _kl_pairs(tracer: Tracer, args, kwargs, result) -> None:
    m = len(result.labels)
    tracer.count("analysis.errors_in", m)
    tracer.count("analysis.kl_pairs", m * m)


def _trials(counter: str):
    def hook(tracer: Tracer, args, kwargs, result) -> None:
        tracer.count(counter, result.trials)
    return hook


COUNTERS = {
    "channels.tensor_channels": _kraus_built,
    "channels.tensor_independent": _kraus_built,
    "channels.depolarizing": _kraus_built,
    "channels.bit_flip": _kraus_built,
    "channels.gaussian_shift": _kraus_built,
    "channels.collective_rotation": _kraus_built,
    "channels.parse_channel_spec": _kraus_built,
    "codes.stabilizer_codespace": _physical_dim,
    "codes.five_qubit": _physical_dim,
    "codes.builtin_code": _physical_dim,
    "codes.repetition_quantum": _physical_dim,
    "codes.cyclic7": _physical_dim,
    "codes.three_spin_noiseless": _physical_dim,
    "codes.trivial_two_qubit": _physical_dim,
    "analysis.correctable_quantum": _kl_pairs,
    "fidelity.average_error_monte_carlo": _trials("fidelity.mc_trials"),
    "pipelines.run_monte_carlo": _trials("pipelines.mc_trials"),
}


# --- per-layer metrics ---------------------------------------------------------

SPAN_METRICS = (
    "cli.main",
    "codes.stabilizer_codespace",
    "analysis.correctable_quantum",
    "analysis.synthesize_decoder",
    "analysis.min_distance_quantum",
    "analysis.detectable_quantum",
    "analysis.weight_le_errors",
    "gf2_symplectic.min_distance",
    "channels.tensor_independent",
    "channels.tensor_channels",
    "channels.apply_matrix",
    "channels.collective_rotation",
    "fidelity.entanglement_fidelity",
    "fidelity.average_error_monte_carlo",
    "pipelines.run_exact",
    "pipelines.run_corrected",
    "pipelines.run_monte_carlo",
)

COUNT_METRICS = (
    "codes.physical_dim_max",
    "analysis.errors_in",
    "analysis.kl_pairs",
    "channels.kraus_ops_built",
    "channels.kraus_bytes_built",
)


def layer_metrics(totals: dict, counters: dict, rounds: int) -> dict:
    """Per-layer values per round of the workload's op mix.

    Times and counts are divided by the number of traced rounds; a maximum
    and the two trial rates are not.
    """
    per = 1.0 / max(rounds, 1)
    out = {}
    for layer in LAYERS:
        rows = [row for name, row in totals.items() if _layer_of(name) == layer]
        out[f"{layer}.calls"] = sum(r[0] for r in rows) * per
        out[f"{layer}.self_s"] = sum(r[1] for r in rows) * per
        out[f"{layer}.errors"] = sum(r[2] for r in rows) * per
    for name in SPAN_METRICS:
        out[f"{name}.self_s"] = totals.get(name, [0, 0.0, 0])[1] * per
    for name in COUNT_METRICS:
        scale = 1.0 if name.endswith("_max") else per
        out[name] = counters.get(name, 0.0) * scale
    for layer, fn in (("fidelity", "fidelity.average_error_monte_carlo"),
                      ("pipelines", "pipelines.run_monte_carlo")):
        busy = totals.get(fn, [0, 0.0, 0])[1]
        trials = counters.get(f"{layer}.mc_trials", 0.0)
        out[f"{layer}.mc_trials_per_s"] = trials / busy if busy > 0 else 0.0
    return out
