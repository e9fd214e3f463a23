"""Outside-in tracer for the ``maccretive`` module layers.

``Tracer.install`` wraps every public function and public method of the
seven layer modules, plus construction, evaluation and the arithmetic
operators of their classes. A function is replaced at every module
binding that holds it, because ``cli``, ``blockop`` and ``evolution``
import names with ``from .funcspace import ...`` and a wrapper placed
only on ``funcspace.l2_inner`` would miss their calls.

Each call is a span with a link to the span that called it. Self time is
a span's duration minus the time covered by its child spans. Spans are
aggregated as they close into per-function counters and caller-callee
call counts, so memory does not grow with the run.

Install only in the traced run: nothing here is imported by the program,
and a fresh import of ``maccretive`` drops every wrapper.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("funcspace", "relations", "derivative", "blockop", "impedance1d", "evolution", "cli")

_OPERATORS = {"__init__", "__call__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__"}

# Metric group -> functions of that layer's module whose spans it sums.
GROUPS = {
    "funcspace.l2_inner": ("l2_inner",),
    "funcspace.differentiate": ("differentiate",),
    "funcspace.exppoly_new": ("ExpPoly.__init__",),
    "funcspace.eval": ("ExpPoly.__call__",),
    "blockop.bd_project": ("bd_project",),
    "blockop.domain_test": ("BlockRealization.domain_test", "BlockRealization.domain_test_all"),
    "blockop.realization_build": (
        "BlockRealization.from_f", "BlockRealization.from_relation", "BlockRealization.from_st",
    ),
    "blockop.block_resolve": ("block_resolve",),
    "derivative.resolve": ("resolve",),
    "derivative.pi_coeff": ("pi_plus_coeff", "pi_minus_coeff"),
    "impedance1d.realization": ("impedance_realization",),
    "evolution.evolve": ("evolve",),
    "evolution.contraction_report": ("contraction_report",),
    "cli.parse": ("RunSpec.from_jsonable",),
    "cli.render": ("render_report", "write_csv"),
}


def _targets(module):
    """``(qualname, owner, attribute name, function)`` for each traced callable."""
    for name, obj in list(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in list(vars(obj).items()):
                if attr.startswith("_") and attr not in _OPERATORS:
                    continue
                if isinstance(member, classmethod) or inspect.isfunction(member):
                    yield f"{name}.{attr}", obj, attr, member
        elif not name.startswith("_") and inspect.isfunction(inspect.unwrap(obj)):
            yield name, module, name, obj


def _state_shape(state):
    """``(largest degree, stored coefficients, largest |coefficient|)``."""
    polys = (state.u, state.v) if hasattr(state, "u") else (state,)
    coeffs = [c for poly in polys for _, c in poly.terms]
    return (
        max((len(c) - 1 for c in coeffs), default=0),
        sum(len(c) for c in coeffs),
        max((abs(x) for c in coeffs for x in c), default=0.0),
    )


class Tracer:
    def __init__(self) -> None:
        # layer, "layer.function" or metric group -> [calls, self ns, failed]
        self.stats = defaultdict(lambda: [0, 0, 0])
        self.edges = defaultdict(int)  # (caller, callee) -> calls
        self.seen = {"funcspace.l2_inner": set(), "blockop.bd_project": set()}
        self.repeats = dict.fromkeys(self.seen, 0)
        self.shapes = {"derivative.resolve": [0, 0, 0.0], "blockop.block_resolve": [0, 0, 0.0]}
        self._stack: list = []

    # -- hooks, run outside the timed span ----------------------------

    def _note_args(self, group, args):
        if group == "funcspace.l2_inner":
            f, g, iv = args[:3]
            key = hash((f.terms, g.terms, iv.a, iv.b))
        elif group == "blockop.bd_project":
            ctx, u = args[:2]
            key = hash((ctx.interval.a, ctx.interval.b, u.terms))
        else:
            return
        seen = self.seen[group]
        if key in seen:
            self.repeats[group] += 1
        else:
            seen.add(key)

    def _note_result(self, group, result):
        shape = self.shapes.get(group)
        if shape is not None:
            for i, value in enumerate(_state_shape(result)):
                shape[i] = max(shape[i], value)

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, qualname, keys, group):
        stats, edges, stack = self.stats, self.edges, self._stack
        counters = [stats[k] for k in keys]
        hooked = group in self.seen or group in self.shapes
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hooked:
                hook_start = clock()
                self._note_args(group, args)
                if stack:
                    stack[-1][0] += clock() - hook_start
            frame = [0, qualname]
            caller = stack[-1][1] if stack else None
            stack.append(frame)
            failed = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = 0
            finally:
                elapsed = clock() - start
                stack.pop()
                own = elapsed - frame[0]
                for counter in counters:
                    counter[0] += 1
                    counter[1] += own
                    counter[2] += failed
                edges[(caller, qualname)] += 1
                if stack:
                    stack[-1][0] += elapsed
            if hooked:
                hook_start = clock()
                self._note_result(group, result)
                if stack:
                    stack[-1][0] += clock() - hook_start
            return result

        return traced

    def install(self, package: str = "maccretive") -> None:
        """Wrap the layer modules of an imported ``package``."""
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for qualname, owner, attr, member in _targets(module):
                group = next((g for g, names in GROUPS.items()
                              if g.startswith(layer + ".") and qualname in names), None)
                label = f"{layer}.{qualname}"
                keys = tuple(dict.fromkeys((layer, label, group or label)))
                if isinstance(member, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(member.__func__, label, keys, group)))
                elif owner is module:
                    replacements[id(member)] = self._wrap(member, label, keys, group)
                else:
                    setattr(owner, attr, self._wrap(member, label, keys, group))
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in replacements:
                    setattr(module, name, replacements[id(obj)])

    # -- results -------------------------------------------------------

    def count(self, key: str) -> int:
        return self.stats[key][0] if key in self.stats else 0

    def self_seconds(self, key: str) -> float:
        return self.stats[key][1] / 1e9 if key in self.stats else 0.0

    def failures(self, key: str) -> int:
        return self.stats[key][2] if key in self.stats else 0

    def calls_between(self, callers, callees) -> int:
        return sum(
            n for (caller, callee), n in self.edges.items()
            if caller in callers and callee in callees
        )

    def repeat_ratio(self, group: str) -> float:
        calls = self.repeats[group] + len(self.seen[group])
        return self.repeats[group] / calls if calls else 0.0
