"""Outside-in tracer: spans around the public functions of each vopcert layer.

Nothing under `src/` knows about it. `install` replaces each target
function with a wrapper wherever a `vopcert` module holds a reference to
it: `from .linprog import lp_solve` copies the binding into every consumer
module, so patching only the defining module would miss most calls. The
package attribute `vopcert.certify` is the function, not the submodule,
so modules are reached through `sys.modules`.

Spans are kept in memory as (request, name, start, end, parent) and
written out when the run ends. A function's self time is its span
minus the part covered by wrapped child spans. Oracle pool workers are
forked processes the wrappers cannot follow, so the benchmark pins
VOPCERT_ORACLE_WORKERS=1 before tracing.
"""

import functools
import sys
import time

# module -> {function: span name}; names default to "<module>.<function>"
TARGETS = {
    "rationals": {"row_echelon": "rationals.elim", "matrix_rank": "rationals.elim",
                  "nullspace_basis": "rationals.elim", "invert": "rationals.elim"},
    "linprog": ("lp_solve", "feasible_point"),
    "cones": {"cone_is_trivial": "cones.cone_is_trivial", "_dd": "cones.dd",
              "hrep_subset": "cones.hrep_subset"},
    "funcs": ("full_dim_selections", "kconvexity_check", "scalarized_subdiff",
              "clarke_subdiff_component"),
    "geometry": ("g1_cone", "g2_cone", "cones_coincide_check", "tangent_cone",
                 "normal_cone", "validate_ordering_cone"),
    "certify": ("certify", "efficiency_check"),
    "oracle": ("robust_oracle", "structured_patterns", "perturbed_instance"),
    "gapfn": ("gap_necessary_check", "zero_in_gap", "enumerate_faces",
              "polytope_vertices", "efficient_faces", "gap_query"),
    "instances": ("parse_instance_text", "report_document", "verify_report",
                  "oracle_document"),
    "cli": ("main",),
}

LAYERS = tuple(TARGETS)
LP_NAMES = ("linprog.lp_solve", "linprog.feasible_point")
# spans whose descendants are tallied by name, for per-call ratios
ATTRIBUTE = ("certify.efficiency_check", "gapfn.zero_in_gap",
             "oracle.robust_oracle")


def targets():
    """(module, function, span name) for every wrapped function."""
    for layer, funcs in TARGETS.items():
        if isinstance(funcs, tuple):
            funcs = {f: f"{layer}.{f}" for f in funcs}
        for fname, name in funcs.items():
            yield layer, fname, name


def _observe_lp(tracer, args, kwargs, result):
    relations = args[1] if len(args) > 1 else kwargs["relations"]
    tracer.bump("linprog.lp_solve.rows", len(relations))
    if result.status in ("infeasible", "unbounded"):
        tracer.bump(f"linprog.lp_solve.{result.status}")


def _observe_oracle(tracer, args, kwargs, result):
    budget = args[3] if len(args) > 3 else kwargs.get("budget", 1000)
    # the zero matrix, then the patterns (tallied below), then the samples
    tracer.bump("oracle.candidates_generated", 1 + budget)


OBSERVERS = {
    "linprog.lp_solve": _observe_lp,
    "cones.dd": lambda t, a, k, r: t.bump("cones.dd.rays_out", len(r)),
    "funcs.full_dim_selections":
        lambda t, a, k, r: t.bump("funcs.full_dim_selections.regions", len(r)),
    "oracle.structured_patterns":
        lambda t, a, k, r: t.bump("oracle.candidates_generated", len(r)),
    "oracle.robust_oracle": _observe_oracle,
}


class Tracer:
    """Span recorder; `install` patches vopcert, `uninstall` restores it."""

    def __init__(self):
        self.stack = []            # open frames: [name, child_seconds, span index]
        self.open = {}             # name -> how many frames of it are open
        self.calls = {}
        self.busy = {}             # inclusive, outermost frames only
        self.self_time = {}
        self.counts = {}
        self.spans = []
        self.request = None
        self._patched = []

    def bump(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            if stack and stack[-1][0] == name:
                # re-entry into the same layer function, e.g. lp_solve's
                # sense="min" delegating to sense="max": one call, one span
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else None
            index = len(self.spans)
            self.spans.append(None)
            frame = [name, 0.0, index]
            stack.append(frame)
            self.open[name] = self.open.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.open[name] -= 1
                self._close(name, frame, parent, start, end)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return wrapper

    def _close(self, name, frame, parent, start, end):
        dur = end - start
        self.spans[frame[2]] = (self.request, name, start, end, parent)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - frame[1]
        if not self.open[name]:
            self.busy[name] = self.busy.get(name, 0.0) + dur
        if self.stack:
            self.stack[-1][1] += dur
        for anc in {f[0] for f in self.stack if f[0] in ATTRIBUTE}:
            self.bump(f"{anc}>{name}")

    def install(self):
        for layer, fname, name in targets():
            orig = getattr(sys.modules[f"vopcert.{layer}"], fname)
            wrapper = self._wrap(name, orig)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "vopcert" and not mod_name.startswith("vopcert."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))
        return self

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def under(self, ancestor, names):
        return sum(self.counts.get(f"{ancestor}>{n}", 0) for n in names)

    def span_records(self, origin):
        """Spans as [request, name, start_us, end_us, parent] from `origin`."""
        return [[req, name, round((s - origin) * 1e6, 1),
                 round((e - origin) * 1e6, 1), parent]
                for req, name, s, e, parent in self.spans]
