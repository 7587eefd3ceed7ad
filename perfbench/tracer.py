"""Span and counter tracing for the benchmark's traced run.

The tracer wraps the public functions of each reflpvi layer from the
outside: it replaces the attribute on the defining class or module, and
every imported alias of it in the ``reflpvi`` modules and the workload
module, and puts the originals back on ``uninstall``.  Nothing in the
library changes; an untraced run never calls ``install``.

Each wrapped call adds its self time (its duration minus the time its
wrapped callees took) and one call to its metric name.  Functions that
are not hot (hot ones run up to millions of times a pass) also record a
span ``(id, name, start, end, parent id)`` kept in memory, where the
parent is the nearest enclosing recorded span.
Time spent in unwrapped helpers counts toward the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from reflpvi import braid, cyclotomic, fingerprints, groups, linalg3, params, schlesinger

_MARK = "__perfbench_wrapped__"


def spec_name(spec) -> str:
    """A group spec in the metric-name alphabet: G(3,3,3) -> G3-3-3."""
    return spec.label().replace("(", "").replace(")", "").replace(",", "-")


def _closure_bound(args, kwargs) -> int:
    bound = kwargs.get("bound", args[1] if len(args) > 1 else None)
    return 1_000_000 if bound is None else bound


def _count_enumerated(tracer, args, kwargs, result, exc):
    if isinstance(exc, groups.ClosureBoundError):
        tracer.counts["groups.enumerated"] += _closure_bound(args, kwargs)
    elif exc is None:
        tracer.counts["groups.enumerated"] += len(result)


def _count_kept(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.counts["groups.kept"] += result.order


def _count_orbit_states(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.counts["braid.orbit.states"] += len(result.orbit)


def _count_classes(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.counts["fingerprints.classes"] += len(result)


def _count_nfev(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.counts["schlesinger.nfev"] += int(result.nfev)


# (metric name, owner, attribute, hot).  A metric name of None marks a
# counting hook that adds no span and no self time of its own.
TARGETS: Tuple[Tuple[Optional[str], object, str, bool], ...] = (
    ("cyclotomic.canonical", cyclotomic.CycloNum, "canonical", True),
    ("cyclotomic.mul", cyclotomic.CycloNum, "__mul__", True),
    ("cyclotomic.add", cyclotomic.CycloNum, "__add__", True),
    ("cyclotomic.sub", cyclotomic.CycloNum, "__sub__", True),
    ("cyclotomic.inverse", cyclotomic.CycloNum, "inverse", True),
    ("cyclotomic.lift", cyclotomic.CycloNum, "lift", True),
    ("cyclotomic.reduce_power_coeffs", cyclotomic, "reduce_power_coeffs", True),
    ("cyclotomic.root_of_unity", cyclotomic, "root_of_unity", True),
    ("cyclotomic.log_root_of_unity", cyclotomic, "log_root_of_unity", True),
    ("linalg3.mat3_mul", linalg3.Mat3, "__mul__", True),
    ("linalg3.det", linalg3.Mat3, "det", True),
    ("linalg3.inverse", linalg3.Mat3, "inverse", True),
    ("linalg3.trace", linalg3.Mat3, "trace", True),
    ("linalg3.trace_of_product", linalg3.Mat3, "trace_of_product", True),
    ("linalg3.charpoly", linalg3.Mat3, "charpoly", True),
    ("linalg3.rank", linalg3.Mat3, "rank", True),
    ("linalg3.lift", linalg3.Mat3, "lift", True),
    ("linalg3.order", linalg3.Mat3, "order", True),
    ("linalg3.is_pseudo_reflection", linalg3, "is_pseudo_reflection", True),
    ("linalg3.finite_order_spectrum", linalg3, "finite_order_spectrum", True),
    ("linalg3.nullspace", linalg3, "nullspace", False),
    ("groups.build_group", groups, "build_group", False),
    ("groups.enumerate_elements", groups, "enumerate_elements", False),
    ("groups.reflections_of", groups, "reflections_of", False),
    ("groups.index_of", groups.ReflectionGroup, "index_of", True),
    ("groups.product_index", groups.ReflectionGroup, "product_index", True),
    ("groups.inverse_index", groups.ReflectionGroup, "inverse_index", True),
    ("groups.trace_index", groups.ReflectionGroup, "trace_index", True),
    ("groups.det_index", groups.ReflectionGroup, "det_index", True),
    ("groups.conjugacy_class", groups.ReflectionGroup, "conjugacy_class", True),
    ("groups.generated_order", groups.ReflectionGroup, "generated_order", True),
    ("groups.generated_order", groups.ReflectionGroup, "generated_order_by_indices", True),
    ("fingerprints.fingerprint", fingerprints, "fingerprint", True),
    ("fingerprints.fingerprint_by_indices", fingerprints, "fingerprint_by_indices", True),
    ("fingerprints.classify_triples", fingerprints, "classify_triples", False),
    ("braid.braid_act", braid, "braid_act", True),
    ("braid.braid_act_quintuple", braid, "braid_act_quintuple", True),
    ("braid.orbit", braid, "orbit", False),
    ("braid.orbit_partition", braid, "orbit_partition", False),
    ("params.table1", params, "table1", False),
    ("params.lambda_mu_of_triple", params, "lambda_mu_of_triple", False),
    ("params.canonical_theta", params, "canonical_theta", False),
    ("params.pvi_abcd", params, "pvi_abcd", True),
    ("params.theta_map", params, "theta_map", True),
    ("params.cubic_coeffs", params, "cubic_coeffs", True),
    ("schlesinger.sample_residues", schlesinger, "sample_residues", False),
    ("schlesinger.diagonalize_gauge", schlesinger, "diagonalize_gauge", False),
    ("schlesinger.integrate_schlesinger", schlesinger, "integrate_schlesinger", False),
    ("schlesinger.reduced_flow_compare", schlesinger, "reduced_flow_compare", False),
    ("schlesinger.eigenvalue_drift", schlesinger.Trajectory, "eigenvalue_drift", False),
    ("schlesinger.eta_pvi_residual", schlesinger, "eta_pvi_residual", False),
    (None, schlesinger, "solve_ivp", False),
)

HOOKS: Dict[str, Callable] = {
    "enumerate_elements": _count_enumerated,
    "build_group": _count_kept,
    "orbit": _count_orbit_states,
    "classify_triples": _count_classes,
    "solve_ivp": _count_nfev,
}


def _alias_modules(extra_modules) -> List[object]:
    """Modules whose imported names may alias a wrapped function."""
    mods = [m for name, m in sys.modules.items()
            if name == "reflpvi" or name.startswith("reflpvi.")]
    return mods + list(extra_modules)


class Tracer:
    """Self times, call counts, work counters and spans of one traced pass."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        self._stack: List[list] = []       # [start, time in wrapped callees, span id]
        self._span_ids: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._last_id = 0

    # -- spans ---------------------------------------------------------

    def _enter(self) -> list:
        self._last_id += 1
        self._span_ids.append(self._last_id)
        frame = [perf_counter(), 0.0, self._last_id]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        dur = end - frame[0]
        self.self_s[name] += dur - frame[1]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dur
        self._span_ids.pop()
        parent = self._span_ids[-1] if self._span_ids else None
        self.spans.append((frame[2], name, frame[0], end, parent))

    @contextmanager
    def span(self, name: str):
        """A recorded span around benchmark code."""
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(name, frame)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: Optional[str], fn, hot: bool):
        tracer = self
        hook = HOOKS.get(fn.__name__)
        if name is None:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(tracer, args, kwargs, result, None)
                return result
        elif hot:
            # _enter/_exit inlined: these run up to a few million times a pass
            stack, self_s, calls = self._stack, self.self_s, self.calls

            def wrapper(*args, **kwargs):
                frame = [perf_counter(), 0.0, None]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - frame[0]
                    stack.pop()
                    self_s[name] += dur - frame[1]
                    calls[name] += 1
                    if stack:
                        stack[-1][1] += dur
        else:
            def wrapper(*args, **kwargs):
                metric = name
                if fn.__name__ == "build_group":
                    metric = f"{name}.{spec_name(args[0] if args else kwargs['spec'])}"
                frame = tracer._enter()
                result = exc = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as e:
                    exc = e
                    raise
                finally:
                    tracer._exit(metric, frame)
                    if hook is not None:
                        hook(tracer, args, kwargs, result, exc)
        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self, extra_modules=()) -> None:
        """Wrap every target and each of its module-level aliases."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, hot in TARGETS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(name, original, hot)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod in _alias_modules(extra_modules):
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, alias, original))
                        setattr(mod, alias, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def installed_wrappers(extra_modules=()) -> List[str]:
    """Names of target attributes that currently hold a tracing wrapper."""
    found = []
    for _, owner, attr, _ in TARGETS:
        holders = [owner] + ([] if isinstance(owner, type) else _alias_modules(extra_modules))
        for holder in holders:
            for alias, value in vars(holder).items():
                if getattr(value, _MARK, False):
                    found.append(f"{getattr(holder, '__name__', holder)}.{alias}")
    return sorted(set(found))
