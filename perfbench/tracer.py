"""Outside-in tracer for the logderiv package.

The tracer wraps public functions of the package from the outside: no file
under src/ changes.  The package binds names with ``from .x import y``, so
a wrapper is installed under every name, in every ``logderiv`` module
namespace, that is bound to the original function object; patching only the
defining module would miss internal calls such as derivmod -> syzygies or
harness -> verify_degree_identity.  Spans (name, start, end, parent span,
problem id) are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute) of every wrapped callable; a dotted attribute is a
# method looked up on a class of that module.
TRACED = (
    ("poly", "squarefree_test"),
    ("groebner", "buchberger"),
    ("groebner", "intersect"),
    ("groebner", "syzygies"),
    ("groebner", "polynomial_gcd"),
    ("groebner", "normal_form"),
    ("groebner", "divide"),
    ("derivmod", "FactoredPolynomial.validate"),
    ("derivmod", "generalized_log_module"),
    ("derivmod", "log_derivations"),
    ("derivmod", "saito_check"),
    ("resolution", "free_resolution"),
    ("resolution", "minimal_generators"),
    ("resolution", "minimize"),
    ("hilbert", "hp_bruteforce"),
    ("hilbert", "verify_degree_identity"),
    ("homog", "affine_log_resolution"),
    ("homog", "homogenize_resolution"),
    ("homog", "homogenize_module"),
    ("homog", "chi_homogenized"),
    ("harness", "random_instance"),
    ("harness", "verify_v_shift"),
    ("harness", "verify_resolution_independence"),
    ("harness", "verify_annihilator_and_dimension"),
)


def _coeff_bits(elements) -> int:
    bits = 0
    for vec in elements:
        for p in vec:
            for c in p.terms.values():
                bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return bits


def _is_zero_vector(vec) -> bool:
    return all(p.is_zero() for p in vec)


# Per-call observations, taken from the arguments and the result after the
# span has ended.  Their cost falls inside the enclosing spans; the tracer
# times it and takes it out of every span that was open meanwhile.
def _observe_buchberger(args, kwargs, result):
    return {"gens_in": len(args[1]), "basis_out": len(result.elements),
            "coeff_bits": _coeff_bits(result.elements)}


def _observe_gcd(args, kwargs, result):
    return {"trivial": result.is_constant()}


def _observe_normal_form(args, kwargs, result):
    return {"zero": _is_zero_vector(result)}


def _observe_minimize(args, kwargs, result):
    return {"ranks_in": sum(args[0].ranks()), "ranks_out": sum(result.ranks())}


def _observe_homogenize_resolution(args, kwargs, result):
    return {"steps": len(result.image_ok), "ok_steps": sum(result.image_ok)}


def _observe_chi_homogenized(args, kwargs, result):
    return {"recomputed": result["recomputed_from_scratch"]}


OBSERVERS = {
    "groebner.buchberger": _observe_buchberger,
    "groebner.polynomial_gcd": _observe_gcd,
    "groebner.normal_form": _observe_normal_form,
    "resolution.minimize": _observe_minimize,
    "homog.homogenize_resolution": _observe_homogenize_resolution,
    "homog.chi_homogenized": _observe_chi_homogenized,
}


class Tracer:
    """Context manager: wraps the TRACED callables on entry, restores the
    original objects on exit.  Set ``problem`` to tag the spans that
    follow with a problem id."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.observing: list[float] = []  # observation time inside each span
        self.outermost: list[bool] = []
        self.problems: list = []
        self.observations: dict[str, list[dict]] = defaultdict(list)
        self.problem = None
        self._observed = 0.0  # total time spent in observations so far
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.starts)
            self.names.append(name)
            self.parents.append(stack[-1] if stack else -1)
            self.outermost.append(depth[name] == 0)
            self.problems.append(self.problem)
            self.ends.append(0.0)
            self.observing.append(self._observed)
            stack.append(idx)
            depth[name] += 1
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self.observing[idx] = self._observed - self.observing[idx]
                depth[name] -= 1
                stack.pop()
            if observe is not None:
                start = perf_counter()
                self.observations[name].append(observe(args, kwargs, result))
                self._observed += perf_counter() - start
            return result

        return wrapper

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        for mod, _ in TRACED:
            importlib.import_module(f"logderiv.{mod}")
        importlib.import_module("logderiv.cli")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "logderiv" or n.startswith("logderiv."))]
        for mod, attr in TRACED:
            name = f"{mod}.{attr}"
            home = sys.modules[f"logderiv.{mod}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                self._set(cls, method, self._wrap(name, cls.__dict__[method]))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
        return False

    def span_seconds(self, i: int) -> float:
        """Duration of span ``i`` without the observations made inside it."""
        return self.ends[i] - self.starts[i] - self.observing[i]

    def layer_metrics(self) -> dict[str, float]:
        """calls, incl_s (time in outermost calls) and self_s (span time
        minus the time of wrapped child spans) per wrapped name, plus the
        sizes and ratios read from the observations."""
        child = [0.0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.span_seconds(i)
        out: dict[str, float] = {}
        for mod, attr in TRACED:
            name = f"{mod}.{attr}"
            out[f"{name}.calls"] = 0
            out[f"{name}.incl_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for i, name in enumerate(self.names):
            span = self.span_seconds(i)
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += span - child[i]
            if self.outermost[i]:
                out[f"{name}.incl_s"] += span
        obs = self.observations
        bb = obs["groebner.buchberger"]
        out["groebner.buchberger.gens_in"] = sum(o["gens_in"] for o in bb)
        out["groebner.buchberger.basis_out"] = sum(o["basis_out"] for o in bb)
        out["groebner.buchberger.basis_max"] = max((o["basis_out"] for o in bb), default=0)
        out["groebner.buchberger.coeff_bits_max"] = max((o["coeff_bits"] for o in bb), default=0)
        out["groebner.polynomial_gcd.trivial_frac"] = _share(obs["groebner.polynomial_gcd"], "trivial")
        out["groebner.normal_form.zero_frac"] = _share(obs["groebner.normal_form"], "zero")
        mins = obs["resolution.minimize"]
        ranks_in = sum(o["ranks_in"] for o in mins)
        out["resolution.kept_frac"] = sum(o["ranks_out"] for o in mins) / ranks_in if ranks_in else 0.0
        hres = obs["homog.homogenize_resolution"]
        steps = sum(o["steps"] for o in hres)
        out["homog.image_ok_frac"] = sum(o["ok_steps"] for o in hres) / steps if steps else 0.0
        out["homog.recomputed_frac"] = _share(obs["homog.chi_homogenized"], "recomputed")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tobserving_s\tparent\tproblem\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\t"
                         f"{self.observing[i]:.9f}\t{self.parents[i]}\t{self.problems[i]}\n")


def _share(observations: list[dict], key: str) -> float:
    return sum(1 for o in observations if o[key]) / len(observations) if observations else 0.0
