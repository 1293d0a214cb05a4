"""Spans around bvgamma's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function or method with a wrapper,
in its defining module or class and wherever another bvgamma module holds
the same object under a name; ``uninstall`` puts the originals back.  No
file of the package changes.

A span is (name, parent, start, end), kept in flat arrays in memory and
written out by ``dump``.  A span's self time is its duration minus the time
its child spans cover.  Spans are recorded on the thread that installed the
tracer only; calls on other threads run untraced, so their time falls into
the waiting span's self time.
"""

from __future__ import annotations

import sys
import threading
import time
from array import array
from collections import defaultdict

LAW_CALLS = {
    "ModelLaw": "laws.model",
    "PiecewiseConstantLaw": "laws.piecewise",
    "PackagedDyadicLaw": "laws.packaged",
    "AffineThetaLaw": "laws.theta",
    "DyadicAffineLaw": "laws.other",
    "TabulatedLaw": "laws.other",
    "ScaledLaw": "laws.other",
}
LAW_METHODS = ("scale_factor", "scale_factor_exact")
STEPFN = ("truncate", "segment", "rearrange", "transition_abscissae", "gaps",
          "level_indices", "staircase_from_gaps", "total_variation", "oscillation")
STEPFN_METHODS = ("from_json", "from_csv", "to_json")
BOUNDS = ("gamma_liminf_factor", "psi_bound", "theta_bound", "zeta_bound",
          "counterexample_table", "domination_margins", "harmonic_number")


class Tracer:
    def __init__(self):
        self.names = []                  # span name table
        self._ids = {}
        self.span_name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(int)   # counters read at span boundaries
        self._stack = []
        self._owner = None
        self._patched = []
        self._law_ids = set()

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            if name.startswith("laws."):
                self._law_ids.add(self._ids[name])
        return self._ids[name]

    def wrap(self, fn, name, before=None, after=None):
        """Wrapper recording one span per call; hooks see args and result."""
        nid = self.name_id(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, clock, ident = self._stack, time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            if ident() != self._owner:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = len(span_name)
            up = stack[-1] if stack else -1
            span_name.append(nid)
            parent.append(up)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, up)
            return result

        return traced

    def outermost(self, up: int) -> bool:
        """True when the parent span is not a law call (for point counts)."""
        return up < 0 or self.span_name[up] not in self._law_ids

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, module, attr, name, **hooks):
        """Replace module.attr and every bvgamma module's alias of it."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "bvgamma" or mod_name.startswith("bvgamma."):
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapper)

    def _patch_method(self, cls, attr, name, **hooks):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self.wrap(raw.__func__, name, **hooks)))
        else:
            self._patch(cls, attr, self.wrap(raw, name, **hooks))

    def install(self):
        from bvgamma import bounds, energy, laws, minprob, stepfn
        import numpy as np

        self._owner = threading.get_ident()
        counts = self.counts

        def law_points(args, kwargs, result, up):
            if self.outermost(up):
                counts["laws.points"] += int(np.size(args[1]))

        for cls_name, name in LAW_CALLS.items():
            cls = getattr(laws, cls_name)
            self._patch_method(cls, "__call__", name, after=law_points)
            for meth in LAW_METHODS:
                if meth in cls.__dict__:
                    self._patch_method(cls, meth, "laws.other")
        for fn in ("check_admissible", "phi_eps"):
            self._patch_function(laws, fn, "laws.other")

        for fn in STEPFN:
            self._patch_function(stepfn, fn, "stepfn")
        for meth in STEPFN_METHODS:
            self._patch_method(stepfn.StepFunction, meth, "stepfn")

        def pairs(key):
            def after(args, kwargs, result, up):
                n = len(args[1].values)
                counts[key] += n * (n - 1) // 2
            return after

        self._patch_function(energy, "lambda_step", "energy.lambda_step",
                             after=pairs("energy.lambda_step.pairs"))
        self._patch_function(energy, "hostility", "energy.hostility",
                             after=pairs("energy.hostility.pairs"))

        def count_profile(args, kwargs):
            # the first call of the profile is the Lipschitz probe; each
            # later call samples one refinement level
            u = args[1]
            calls = [0]

            def profile(x):
                calls[0] += 1
                counts["energy.lambda_quad.points"] += int(np.size(x))
                if calls[0] > 1:
                    counts["energy.lambda_quad.levels"] += 1
                return u(x)
            return (args[0], profile, *args[2:]), kwargs

        self._patch_function(energy, "lambda_quad", "energy.lambda_quad",
                             before=count_profile)

        def min_result(args, kwargs, result, up):
            counts["minprob.starts"] += result.starts
            tol = 1e-9 * max(1.0, abs(result.value))
            for _, trace in result.traces:
                counts["minprob.iterations"] += len(trace) - 1
                counts["minprob.best_starts"] += abs(trace[-1] - result.value) <= tol
                counts["minprob.traces"] += 1

        def domain_result(args, kwargs, result, up):
            counts["minprob.in_domain.true"] += bool(result)

        self._patch_function(minprob, "minimize", "minprob.minimize", after=min_result)
        self._patch_function(minprob, "in_domain", "minprob.in_domain", after=domain_result)
        for fn in ("window_sums", "telescopic_margin"):
            self._patch_function(minprob, fn, f"minprob.{fn}")
        for meth in ("objective", "gradient"):
            self._patch_method(minprob.MinProblem, meth, f"minprob.{meth}")

        for fn in BOUNDS:
            self._patch_function(bounds, fn, "bounds")

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def self_times(self):
        """Per span name: (span count, summed self time in seconds)."""
        import numpy as np

        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        cover = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        own = dur - cover
        n = np.bincount(names, minlength=len(self.names))
        s = np.bincount(names, weights=own, minlength=len(self.names))
        return {name: (int(n[i]), float(s[i])) for i, name in enumerate(self.names)}

    def dump(self, path):
        """Write every span: name table plus name, parent, start, end columns."""
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
