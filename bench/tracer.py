"""Spans and work counters at cfkit's layer boundaries, from outside cfkit.

:meth:`Tracer.install` wraps every public function of each cfkit module and
the ring methods of ``MultiPoly``, rebinding each name in every cfkit module
that holds it (``cli`` binds ``check_axioms`` itself, ``deform`` binds
``poly_det``, the package re-exports most names).  :meth:`Tracer.uninstall`
puts the originals back.

Each call records its duration and its self time: the duration minus the
time its wrapped callees cover.  Calls into the hot kernels (``KERNELS``
and every ``MultiPoly`` method) run about a million times per corpus pass,
so they are only aggregated per name; every other call is kept as a span
``(id, parent id, verdict, name, start, end, self)`` in memory until the
pass ends.  Inclusive time per name counts only the outermost call, so
recursion is not counted twice.  Trivial ``MultiPoly`` accessors
(``is_zero``, ``__eq__``, ``__hash__``, constructors) are not wrapped; their
time counts toward the caller.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter, defaultdict

import cfkit
from cfkit.poly import MultiPoly

MODULES = ("poly", "algebra", "actions", "deform", "constraints", "structure",
           "dsl", "cli", "corpus")

POLY_METHODS = {
    "__add__": "poly.add", "__radd__": "poly.add",
    "__mul__": "poly.mul", "__rmul__": "poly.mul",
    "__sub__": "poly.sub", "__rsub__": "poly.sub",
    "__neg__": "poly.neg", "__truediv__": "poly.truediv", "__pow__": "poly.pow",
    "substitute": "poly.substitute", "eval_at": "poly.eval_at",
    "evaluate": "poly.evaluate", "coefficient_list": "poly.coefficient_list",
    "variables": "poly.variables", "degree": "poly.degree", "terms": "poly.terms",
    "leading": "poly.leading", "__str__": "poly.str",
}

KERNELS = {
    "algebra.spectral_eval", "algebra.require_affine", "algebra.product_eval",
    "algebra.zero_element", "algebra.element_text", "actions.action_eval",
    "deform.apply_matrix", "deform.apply_map", "structure.poly_deg",
    "structure.poly_divmod", "structure.poly_det", "structure.member",
    "constraints.verify_assignment",
}

#: Per-layer metrics reported by a traced pass, with their units.
LAYER_METRICS = {
    "poly.mul.calls": "count",
    "poly.mul.term_pairs": "count",
    "poly.add.calls": "count",
    "poly.substitute.calls": "count",
    "poly.self_s": "s",
    "algebra.spectral_eval.calls": "count",
    "algebra.spectral_eval.self_s": "s",
    "algebra.check_axioms.s": "s",
    "actions.action_eval.calls": "count",
    "actions.check_matched_pair.s": "s",
    "actions.build_bicrossed.s": "s",
    "actions.check_b1_b2_direct.s": "s",
    "deform.check_deformation_map.calls": "count",
    "deform.check_deformation_map.s": "s",
    "deform.deformed_algebra.s": "s",
    "deform.graph_embedding_check.s": "s",
    "deform.check_morphism.s": "s",
    "deform.check_equivalence.calls": "count",
    "deform.check_equivalence.s": "s",
    "deform.equiv_hit_ratio": "ratio",
    "constraints.compile.s": "s",
    "constraints.equations": "count",
    "constraints.linear_eliminate.s": "s",
    "constraints.grid_search.s": "s",
    "constraints.grid_points": "count",
    "constraints.grid_hit_ratio": "ratio",
    "constraints.verify_assignment.calls": "count",
    "structure.derived_subalgebra.calls": "count",
    "structure.hermite_normal_form.calls": "count",
    "structure.is_solvable.s": "s",
    "dsl.parse.s": "s",
    "dsl.parse.bytes": "bytes",
    "dsl.serialize.s": "s",
    "cli.self_s": "s",
}


def _term_pairs(counts, args, kwargs, result):
    if result is NotImplemented:
        return
    a, b = args
    counts["poly.mul.term_pairs"] += len(a._terms) * (
        len(b._terms) if isinstance(b, MultiPoly) else int(b != 0)
    )


def _parse_bytes(counts, args, kwargs, result):
    counts["dsl.parse.bytes"] += len(args[0].encode("utf-8"))


def _equations(counts, args, kwargs, result):
    counts["constraints.equations"] += len(result.equations)


def _grid(counts, args, kwargs, result):
    system, values = args[0], args[1]
    counts["constraints.grid_points"] += len(values) ** len(system.unknowns)
    counts["constraints.grid_hits"] += len(result)


def _witness(counts, args, kwargs, result):
    counts["deform.equiv_witnesses"] += result.passed


# work counters taken from arguments or results, by wrapped name
HOOKS = {
    "poly.mul": _term_pairs,
    "dsl.try_parse": _parse_bytes,
    "dsl.parse_poly_text": _parse_bytes,
    "constraints.compile_deformation_constraints": _equations,
    "constraints.grid_search": _grid,
    "deform.check_equivalence": _witness,
}


class Tracer:
    def __init__(self):
        self.verdict = -1  # index of the verdict being run; spans carry it
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self._frames: list[list] = []  # [time covered by callees, span id]
        self._depth: Counter = Counter()
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        frames, depth, clock = self._frames, self._depth, time.perf_counter
        counts, hook = self.counts, HOOKS.get(name)
        keep_span = name not in KERNELS and not name.startswith("poly.")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = frames[-1][1] if frames else None
            span_id = len(tracer.spans) if keep_span else parent
            frame = [0.0, span_id]
            frames.append(frame)
            depth[name] += 1
            if keep_span:
                tracer.spans.append(None)  # reserve the id in call order
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                depth[name] -= 1
                duration = end - start
                own = duration - frame[0]
                calls[name] += 1
                self_time[name] += own
                if not depth[name]:
                    inclusive[name] += duration
                if frames:
                    frames[-1][0] += duration
                if keep_span:
                    tracer.spans[span_id] = (
                        span_id, parent, tracer.verdict, name, start, end, own
                    )
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(f"cfkit.{m}") for m in MODULES]
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == mod.__name__
                ):
                    wrappers[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
        for attr, name in POLY_METHODS.items():
            fn = MultiPoly.__dict__[attr]
            if id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for owner in [cfkit, MultiPoly, *modules]:
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
                    self._patches.append((owner, attr, value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything traced so far."""
        calls, incl, own, counts = self.calls, self.inclusive, self.self_time, self.counts

        def layer_self(prefix):
            return sum((v for k, v in own.items() if k.startswith(prefix)), 0.0)

        grid_points = counts["constraints.grid_points"]
        candidates = calls["deform.check_equivalence"]
        out = {
            "poly.mul.calls": calls["poly.mul"],
            "poly.mul.term_pairs": counts["poly.mul.term_pairs"],
            "poly.add.calls": calls["poly.add"],
            "poly.substitute.calls": calls["poly.substitute"],
            "poly.self_s": layer_self("poly."),
            "algebra.spectral_eval.calls": calls["algebra.spectral_eval"],
            "algebra.spectral_eval.self_s": own["algebra.spectral_eval"],
            "algebra.check_axioms.s": incl["algebra.check_axioms"],
            "actions.action_eval.calls": calls["actions.action_eval"],
            "actions.check_matched_pair.s": incl["actions.check_matched_pair"],
            "actions.build_bicrossed.s": incl["actions.build_bicrossed"],
            "actions.check_b1_b2_direct.s": incl["actions.check_b1_b2_direct"],
            "deform.check_deformation_map.calls": calls["deform.check_deformation_map"],
            "deform.check_deformation_map.s": incl["deform.check_deformation_map"],
            "deform.deformed_algebra.s": incl["deform.deformed_algebra"],
            "deform.graph_embedding_check.s": incl["deform.graph_embedding_check"],
            "deform.check_morphism.s": incl["deform.check_morphism"],
            "deform.check_equivalence.calls": candidates,
            "deform.check_equivalence.s": incl["deform.check_equivalence"],
            "deform.equiv_hit_ratio":
                counts["deform.equiv_witnesses"] / candidates if candidates else 0.0,
            "constraints.compile.s": incl["constraints.compile_deformation_constraints"],
            "constraints.equations": counts["constraints.equations"],
            "constraints.linear_eliminate.s": incl["constraints.linear_eliminate"],
            "constraints.grid_search.s": incl["constraints.grid_search"],
            "constraints.grid_points": grid_points,
            "constraints.grid_hit_ratio":
                counts["constraints.grid_hits"] / grid_points if grid_points else 0.0,
            "constraints.verify_assignment.calls": calls["constraints.verify_assignment"],
            "structure.derived_subalgebra.calls": calls["structure.derived_subalgebra"],
            "structure.hermite_normal_form.calls": calls["structure.hermite_normal_form"],
            "structure.is_solvable.s": incl["structure.is_solvable"],
            "dsl.parse.s": incl["dsl.try_parse"] + incl["dsl.parse_poly_text"],
            "dsl.parse.bytes": counts["dsl.parse.bytes"],
            "dsl.serialize.s": incl["dsl.serialize"],
            "cli.self_s": layer_self("cli."),
        }
        return out

    def summary(self) -> dict:
        """Metrics, exact counters and spans, as plain JSON-ready values."""
        return {
            "metrics": self.metrics(),
            "counters": {
                **{f"{k}.calls": v for k, v in sorted(self.calls.items())},
                **dict(sorted(self.counts.items())),
            },
            "self_s": dict(sorted(self.self_time.items())),
            "spans": self.spans,
        }
