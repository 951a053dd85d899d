"""Outside-in span tracing of deformzeros' layer entry points.

The program is not changed.  ``Tracer.install`` swaps each target function
(or method) for a wrapper in every loaded ``deformzeros`` module that holds
it, and ``Tracer.uninstall`` puts the originals back.  A wrapper records one
span per call (name, start, end, parent) into flat arrays held in memory;
nothing is written until ``summarize`` runs after the timed work.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# (layer name, module, attribute); "Class.method" patches the class.
# analytic.spec_eval covers both ways a FunctionSpec is evaluated.
TARGETS = (
    ("analytic.zeta_reg", "deformzeros.analytic", "_zeta_reg"),
    ("analytic.hurwitz_zeta", "deformzeros.analytic", "hurwitz_zeta_with_error"),
    ("analytic.dirichlet_l", "deformzeros.analytic", "dirichlet_l_with_error"),
    ("analytic.log_gamma", "deformzeros.analytic", "log_gamma"),
    ("analytic.spec_eval", "deformzeros.analytic", "FunctionSpec.__call__"),
    ("analytic.spec_eval", "deformzeros.analytic", "FunctionSpec.eval_with_error"),
    ("funceq.w_factor", "deformzeros.funceq", "w_factor"),
    ("funceq.signal_value", "deformzeros.funceq", "CriticalLineSignal.value_with_imag"),
    ("funceq.signal_phase", "deformzeros.funceq", "CriticalLineSignal.phase"),
    ("funceq.residual_sweep", "deformzeros.funceq", "residual_sweep"),
    ("zerofind.scan_line_zeros", "deformzeros.zerofind", "scan_line_zeros"),
    ("zerofind.count_zeros_box", "deformzeros.zerofind", "count_zeros_box"),
    ("zerofind.verify_on_line", "deformzeros.zerofind", "verify_on_line"),
    ("deformation.run_claim_report", "deformzeros.deformation", "run_claim_report"),
    ("deformation.pair_zeros", "deformzeros.deformation", "pair_zeros"),
    ("deformation.track_zero", "deformzeros.deformation", "track_zero"),
    ("deformation.bracket_correct", "deformzeros.deformation", "_bracket_correct"),
    ("deformation.gap_ordinate", "deformzeros.deformation", "_gap_ordinate"),
    ("deformation.divide_by_trivial_factor", "deformzeros.deformation", "divide_by_trivial_factor"),
    ("deformation.convolution_roundtrip", "deformzeros.deformation", "convolution_roundtrip"),
    ("characters.catalog_self_dual", "deformzeros.characters", "catalog_self_dual"),
    ("characters.gauss_sum_collisions", "deformzeros.characters", "gauss_sum_collisions"),
    ("cli.main", "deformzeros.cli", "main"),
)

LAYERS = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

PACKAGE = "deformzeros"
_MARK = "__perfbench_original__"


def _package_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    def __init__(self):
        self.layer_ids: dict[str, int] = {}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._seen_endpoints: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, fn, layer: str, observe=None):
        """A wrapper that records a span named `layer` around each call of fn."""
        lid = self.layer_ids.setdefault(layer, len(self.layer_ids))
        layers, parents = self.span_layer, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(layers)
            layers.append(lid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Patch every target in every loaded module of the package."""
        modules = _package_modules()
        observers = {
            "analytic.hurwitz_zeta": self._observe_hurwitz,
            "analytic.dirichlet_l": self._observe_dirichlet,
            "deformation.bracket_correct": self._observe_bracket,
            "zerofind.count_zeros_box": self._observe_box,
        }
        for layer, module_name, attr in targets:
            module = sys.modules.get(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(fn_name) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(original, layer, observers.get(layer))
            if owner_name:
                self._patch(owner, fn_name, original, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, original, wrapper)

    def _patch(self, owner, name: str, original, wrapper) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Restore every original; raise if any wrapper is left behind."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        for m in _package_modules():
            for attr, value in vars(m).items():
                inner = [value] + list(vars(value).values()) if isinstance(value, type) else [value]
                if any(hasattr(v, _MARK) for v in inner):
                    raise RuntimeError(f"wrapper left on {m.__name__}.{attr}")

    # ----------------------------------------------------------- observers

    def _endpoint(self, key) -> None:
        self.counters["endpoint_evals"] += 1
        if key in self._seen_endpoints:
            self.counters["endpoint_repeats"] += 1
        else:
            self._seen_endpoints.add(key)

    def _observe_hurwitz(self, args, kwargs, result) -> None:
        s, a = args[0], args[1] if len(args) > 1 else kwargs["a"]
        self._endpoint(("hurwitz", a, complex(s)))

    def _observe_dirichlet(self, args, kwargs, result) -> None:
        s, chi = args[0], args[1] if len(args) > 1 else kwargs["chi"]
        self._endpoint(("dirichlet", chi.modulus, chi.label, complex(s)))

    def _observe_bracket(self, args, kwargs, result) -> None:
        if result is not None:
            self.counters["bracket_hits"] += 1

    def _observe_box(self, args, kwargs, result) -> None:
        rect = args[1] if len(args) > 1 else kwargs["rect"]
        if result.rectangle != rect:
            self.counters["box_retries"] += 1

    # ------------------------------------------------------------- summary

    def summarize(self) -> dict:
        names = {lid: name for name, lid in self.layer_ids.items()}
        per = summarize_spans(self.span_layer, self.span_parent, self.span_start, self.span_end)
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.layer_ids}
        for lid, (calls, self_s) in per.items():
            out[names[lid]] = {"calls": calls, "self_s": self_s}
        return out

    def inclusive_s(self, layer: str) -> float:
        """Wall time covered by spans of `layer`, nested repeats counted once."""
        lid = self.layer_ids.get(layer)
        if lid is None:
            return 0.0
        total = 0.0
        layers, parents = self.span_layer, self.span_parent
        for i in range(len(layers)):
            if layers[i] != lid:
                continue
            p = parents[i]
            while p >= 0 and layers[p] != lid:
                p = parents[p]
            if p < 0:
                total += self.span_end[i] - self.span_start[i]
        return total


def summarize_spans(layers, parents, starts, ends) -> dict[int, tuple[int, float]]:
    """Per layer id: (calls, self time), self = duration minus child durations."""
    n = len(layers)
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    calls: Counter = Counter()
    self_s: dict[int, float] = {}
    for i in range(n):
        lid = layers[i]
        calls[lid] += 1
        self_s[lid] = self_s.get(lid, 0.0) + (ends[i] - starts[i]) - child[i]
    return {lid: (calls[lid], self_s[lid]) for lid in calls}
