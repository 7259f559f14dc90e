"""Per-layer tracing of cag, installed from outside the package.

`Tracer.install` replaces the public functions of the traced layers, and the
hot `Evaluator` methods, by wrappers: on every module of the `cag` package
that holds the function, and on the `Evaluator` class.  `uninstall` puts the
originals back.  Nothing in the package is edited.

A layer-boundary call (a public function, `Evaluator.__init__`) records a
span: id, name, job, parent span, start, end and self time, where self time
is the span's duration minus the time covered by its direct children.  Hot
engine methods run millions of times per run, so instead of one span each
they add their call count and self time to a total keyed by
(method, nearest enclosing boundary span).  Spans stay in memory until
`dump` writes them once.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from cag import dynamics, engine, equilibria, gadgets, generators, io, sequential

# (module, function name, extra counts taken from (args, result))
BOUNDARY = [
    (equilibria, "analyze", lambda a, r: {"profiles": a[0].profile_space_size()}),
    (equilibria, "optimal_social_welfare", None),
    (sequential, "spoa", lambda a, r: {"leaf_profiles": a[0].instance.profile_space_size()}),
    (sequential, "spe_decision",
     lambda a, r: {"leaf_profiles": a[0].instance.profile_space_size()}),
    (dynamics, "run_dynamics", lambda a, r: {"steps": len(r.steps)}),
    (gadgets, "tqbf_to_cag",
     lambda a, r: {"profiles": r.instance.instance.profile_space_size()}),
    (generators, "gen_random", None),
] + [
    (io, name, (lambda a, r: {"bytes": len(r)}) if name.startswith("dumps_") else None)
    for name in io.__all__
    if name.startswith(("dumps_", "loads_"))
]

HOT = ["loads", "welfare", "utility_scaled", "utilities_scaled", "deviation_scaled",
       "is_approx_pne"]

LAYER_OF = {
    equilibria: "equilibria", sequential: "sequential", dynamics: "dynamics",
    gadgets: "gadgets", generators: "generators", io: "io",
}


class Tracer:
    def __init__(self):
        self.job = None  # number of the current job; None during set-up
        self.spans = []  # (id, name, job, parent id, start, end, self s, extra)
        self.hot = {}  # (method name, owner span name) -> [calls, self s]
        self._stack = [[None, None, 0.0]]  # [span id, span name, child s]
        self._next_id = 0
        self._saved = []

    def start_job(self) -> None:
        self.job = 0 if self.job is None else self.job + 1

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module, fname, extra in BOUNDARY:
            original = getattr(module, fname)
            name = f"{LAYER_OF[module]}.{fname}"
            self._replace(original, self._boundary(original, name, extra))
        cls = engine.Evaluator
        init = cls.__init__
        self._saved.append((cls, "__init__", init))
        cls.__init__ = self._boundary(
            init, "engine.Evaluator.__init__",
            lambda a, r: {"den_bits": a[0].den.bit_length()},
        )
        for method in HOT:
            original = getattr(cls, method)
            self._saved.append((cls, method, original))
            setattr(cls, method, self._hot(original, f"engine.Evaluator.{method}"))

    def _replace(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cag" and not mod_name.startswith("cag."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- wrappers ---------------------------------------------------------

    def _boundary(self, fn, name, extra):
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1]
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent[2] += end - start
            counts = extra(args, result) if extra else None
            self.spans.append(
                (span_id, name, self.job, parent[0], start, end,
                 end - start - frame[2], counts)
            )
            return result

        return wrapper

    def _hot(self, fn, name):
        hot = self.hot

        def wrapper(*args):
            stack = self._stack
            parent = stack[-1]
            frame = [parent[0], parent[1], 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent[2] += elapsed
                key = (name, frame[1])
                rec = hot.get(key)
                if rec is None:
                    rec = hot[key] = [0, 0.0]
                rec[0] += 1
                rec[1] += elapsed - frame[2]

        return wrapper

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        data = {
            "spans": [
                dict(zip(("id", "name", "job", "parent", "start", "end", "self",
                          "counts"), span))
                for span in self.spans
            ],
            "hot": [
                {"method": m, "owner": o, "calls": c, "self": s}
                for (m, o), (c, s) in sorted(self.hot.items(), key=str)
            ],
        }
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# per-layer metrics

#: name -> unit, in report order; values are per traced job unless the
#: README says otherwise.
PER_LAYER = {
    "engine.evaluators": "count",
    "engine.init_ms": "ms",
    "engine.den_bits": "bits",
    "engine.loads_calls": "count",
    "engine.pne_tests": "count",
    "engine.deviation_calls": "count",
    "engine.utility_calls": "count",
    "engine.leaf_calls": "count",
    "engine.self_ms": "ms",
    "equilibria.analyze_ms": "ms",
    "equilibria.self_ms": "ms",
    "equilibria.us_per_profile": "us",
    "equilibria.loads_per_profile": "ratio",
    "equilibria.pne_tests_per_profile": "ratio",
    "sequential.spoa_ms": "ms",
    "sequential.decision_ms": "ms",
    "sequential.self_ms": "ms",
    "sequential.leaves": "count",
    "sequential.leaf_ratio": "ratio",
    "sequential.us_per_leaf": "us",
    "sequential.opt_scan_ms": "ms",
    "dynamics.run_ms": "ms",
    "dynamics.steps": "count",
    "dynamics.us_per_step": "us",
    "dynamics.deviations_per_step": "ratio",
    "gadgets.build_ms": "ms",
    "gadgets.profiles": "count",
    "io.load_ms": "ms",
    "io.dump_ms": "ms",
    "io.out_bytes": "bytes",
    "generators.gen_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}

SEQUENTIAL = ("sequential.spoa", "sequential.spe_decision")


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work of that kind."""
    return num / den if den else 0.0


def layer_metrics(jobs: Tracer, setup: Tracer, num_jobs: int, plain_s: float,
                  traced_s: float) -> dict[str, float]:
    """Per-layer metrics from the traced job passes (`jobs`, `num_jobs`
    jobs in whole pool passes) and one traced set-up (`setup`)."""
    names = {s[0]: s[1] for s in jobs.spans}

    def spans(*wanted, parent=None):
        return [s for s in jobs.spans
                if s[1] in wanted and (parent is None or names.get(s[3]) in parent)]

    def total(rows, field):
        if field == "time":
            return sum(s[5] - s[4] for s in rows)
        return sum(s[7][field] for s in rows)

    def calls(method, owners=None):
        return sum(c for (m, o), (c, _) in jobs.hot.items()
                   if m == f"engine.Evaluator.{method}" and (owners is None or o in owners))

    def layer_self(layer):
        spans_self = sum(s[6] for s in jobs.spans if s[1].startswith(layer + "."))
        hot_self = sum(t for (m, _), (_, t) in jobs.hot.items() if m.startswith(layer + "."))
        return spans_self + hot_self

    def per_job_ms(seconds):
        return seconds * 1e3 / num_jobs

    inits = spans("engine.Evaluator.__init__")
    analyze = spans("equilibria.analyze")
    profiles = total(analyze, "profiles")
    seq = spans(*SEQUENTIAL)
    seq_s = total(seq, "time")
    opt_scan_s = total(spans("equilibria.optimal_social_welfare", parent=SEQUENTIAL), "time")
    leaves = calls("utilities_scaled", SEQUENTIAL)
    runs = spans("dynamics.run_dynamics")
    steps = total(runs, "steps")
    builds = spans("gadgets.tqbf_to_cag")
    dumps = [s for s in jobs.spans if s[1].startswith("io.dumps_")]
    setup_io = [s for s in setup.spans if s[1].startswith("io.loads_")]
    setup_gen = [s for s in setup.spans if s[1] == "generators.gen_random"]

    values = {
        "engine.evaluators": len(inits) / num_jobs,
        "engine.init_ms": per_job_ms(total(inits, "time")),
        "engine.den_bits": _ratio(total(inits, "den_bits"), len(inits)),
        "engine.loads_calls": calls("loads") / num_jobs,
        "engine.pne_tests": calls("is_approx_pne") / num_jobs,
        "engine.deviation_calls": calls("deviation_scaled") / num_jobs,
        "engine.utility_calls": calls("utility_scaled") / num_jobs,
        "engine.leaf_calls": calls("utilities_scaled") / num_jobs,
        "engine.self_ms": per_job_ms(layer_self("engine")),
        "equilibria.analyze_ms": per_job_ms(total(analyze, "time")),
        "equilibria.self_ms": per_job_ms(layer_self("equilibria")),
        "equilibria.us_per_profile": _ratio(total(analyze, "time") * 1e6, profiles),
        "equilibria.loads_per_profile": _ratio(calls("loads", ["equilibria.analyze"]), profiles),
        "equilibria.pne_tests_per_profile": _ratio(
            calls("is_approx_pne", ["equilibria.analyze"]), profiles),
        "sequential.spoa_ms": per_job_ms(total(spans("sequential.spoa"), "time")),
        "sequential.decision_ms": per_job_ms(total(spans("sequential.spe_decision"), "time")),
        "sequential.self_ms": per_job_ms(layer_self("sequential")),
        "sequential.leaves": leaves / num_jobs,
        "sequential.leaf_ratio": _ratio(leaves, total(seq, "leaf_profiles")),
        "sequential.us_per_leaf": _ratio((seq_s - opt_scan_s) * 1e6, leaves),
        "sequential.opt_scan_ms": per_job_ms(opt_scan_s),
        "dynamics.run_ms": per_job_ms(total(runs, "time")),
        "dynamics.steps": steps / num_jobs,
        "dynamics.us_per_step": _ratio(total(runs, "time") * 1e6, steps),
        "dynamics.deviations_per_step": _ratio(
            calls("deviation_scaled", ["dynamics.run_dynamics"]), steps),
        "gadgets.build_ms": per_job_ms(total(builds, "time")),
        "gadgets.profiles": total(builds, "profiles") / num_jobs,
        "io.load_ms": total(setup_io, "time") * 1e3,
        "io.dump_ms": per_job_ms(total(dumps, "time")),
        "io.out_bytes": total(dumps, "bytes") / num_jobs,
        "generators.gen_ms": total(setup_gen, "time") * 1e3,
        "trace.overhead_ms": per_job_ms(traced_s - plain_s),
        "trace.overhead_pct": _ratio((traced_s - plain_s) * 100, plain_s),
    }
    assert list(values) == list(PER_LAYER)
    return values
