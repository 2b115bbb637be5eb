"""Per-layer tracing from outside the program.

A traced pass replaces the public functions and public methods of each
sjdomains module with wrappers that open and close a span around the call.
The layers are the package modules, with quad split three ways (Gaussian
moments, the Monte Carlo engines, the rest).  A span's self time is its
duration minus the durations of the spans it directly encloses; spans are
folded into per-function totals as they close, so a pass holds one record per
wrapped function, not one per call.

Rebinding: replacing a module attribute does not reach a name that another
module bound with `from ... import` before the wrappers went in, so
`install` also rebinds every module-level name, and every value of a
module-level dict (such as the `SUITES` registry), that still refers to a
replaced function.  What escapes is listed in README.md.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass

# Modules whose public callables are wrapped, in the package's import order.
LAYER_MODULES = ("numkit", "domains", "groups", "kernels", "fockpoly", "quad",
                 "discrete_series", "report", "suites", "cli")

QUAD_MOMENT = frozenset({"gaussian_moment", "monomial_moment", "fock_inner",
                         "verify_gaussian_pairing"})
QUAD_MC = frozenset({"mc_disk_gram", "mc_disk_inner", "mc_dj_gram",
                     "mc_dj_inner", "mc_hj_inner"})
# mc_dj_inner delegates to mc_dj_gram, which draws the samples; counting
# both would count its samples twice.
QUAD_MC_SAMPLERS = QUAD_MC - {"mc_dj_inner"}

LAYERS = ("numkit", "domains", "groups", "kernels", "fockpoly", "quad.moment",
          "quad.mc", "quad.other", "discrete_series", "report", "suites", "cli")


def layer_of(module: str, name: str) -> str:
    """Layer of the public callable `name` (a function or `Class.method`)
    defined in sjdomains.<module>."""
    if module != "quad":
        return module
    if name in QUAD_MOMENT:
        return "quad.moment"
    if name in QUAD_MC:
        return "quad.mc"
    return "quad.other"


@dataclass
class SiteStats:
    """Totals of one wrapped callable."""
    layer: str
    name: str
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    samples: int = 0


class Tracer:
    """Span stack plus per-site totals.

    `enter`/`exit` bracket one span; wrappers made by `wrap` call them.  The
    outermost span of each layer also adds its duration to `layer_outer_s`,
    the layer's inclusive time with nested calls of the same layer counted
    once."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.sites: list[SiteStats] = []
        self.layer_outer_s: dict[str, float] = {}
        self._layer_depth: dict[str, int] = {}
        self._stack: list[list] = []

    def site(self, layer: str, name: str) -> int:
        self.sites.append(SiteStats(layer, name))
        return len(self.sites) - 1

    def enter(self, site: int):
        layer = self.sites[site].layer
        self._layer_depth[layer] = self._layer_depth.get(layer, 0) + 1
        self._stack.append([site, self.clock(), 0.0])

    def exit(self):
        site, start, child_s = self._stack.pop()
        duration = self.clock() - start
        stats = self.sites[site]
        stats.calls += 1
        stats.self_s += duration - child_s
        stats.total_s += duration
        depth = self._layer_depth[stats.layer] - 1
        self._layer_depth[stats.layer] = depth
        if depth == 0:
            self.layer_outer_s[stats.layer] = (
                self.layer_outer_s.get(stats.layer, 0.0) + duration)
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, fn, layer: str, name: str, count_samples=None):
        """Wrapper of `fn` that records one span per call; `count_samples`,
        when given, maps the call's arguments to a sample count."""
        site = self.site(layer, name)
        enter, exit_ = self.enter, self.exit
        stats = self.sites[site]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_samples is not None:
                stats.samples += count_samples(args, kwargs)
            enter(site)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def layer_totals(self) -> dict:
        """{layer: {"calls", "self_s", "samples"}} over every site."""
        out = {layer: {"calls": 0, "self_s": 0.0, "samples": 0} for layer in LAYERS}
        for stats in self.sites:
            agg = out[stats.layer]
            agg["calls"] += stats.calls
            agg["self_s"] += stats.self_s
            agg["samples"] += stats.samples
        return out

    def site_table(self) -> list:
        """Per-function rows for the trace file, busiest first."""
        rows = [{"layer": s.layer, "name": s.name, "calls": s.calls,
                 "self_s": s.self_s, "total_s": s.total_s, "samples": s.samples}
                for s in self.sites if s.calls]
        return sorted(rows, key=lambda row: -row["self_s"])


def _mc_samples(mcconfig_type):
    """Sample counter for an mc engine: the `samples` of the MCConfig among
    its arguments."""
    def count(args, kwargs):
        for value in (*args, *kwargs.values()):
            if isinstance(value, mcconfig_type):
                return int(value.samples)
        return 0
    return count


def _public_callables(module):
    """(qualified name, owner, attribute, raw value, callable) for every
    public function of `module` and every public method of its classes."""
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr, raw in list(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    yield f"{name}.{attr}", obj, attr, raw, raw.__func__
                elif inspect.isfunction(raw):
                    yield f"{name}.{attr}", obj, attr, raw, raw
        elif callable(obj):
            # plain functions and functools.lru_cache wrappers
            yield name, module, name, obj, obj


def install(tracer: Tracer, package):
    """Wrap the public callables of every module in LAYER_MODULES of
    `package` (the imported sjdomains) and rebind references to them."""
    modules = {short: getattr(package, short) for short in LAYER_MODULES}
    mcconfig = modules["quad"].MCConfig
    replaced = {}
    for short, module in modules.items():
        for qualname, owner, attr, raw, fn in _public_callables(module):
            layer = layer_of(short, qualname)
            counter = (_mc_samples(mcconfig)
                       if short == "quad" and qualname in QUAD_MC_SAMPLERS else None)
            traced = tracer.wrap(fn, layer, qualname, counter)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(traced))
            elif isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(traced))
            else:
                setattr(owner, attr, traced)
                replaced[id(fn)] = traced
    for module in (package, *modules.values()):
        namespace = vars(module)
        for name, value in list(namespace.items()):
            if id(value) in replaced:
                namespace[name] = replaced[id(value)]
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if id(entry) in replaced:
                        value[key] = replaced[id(entry)]
