"""vopcert benchmark: one seeded workload per invocation, every output checked.

    python3 bench/run.py --workload certify-mix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. With `--trace 0` requests run back to back, one client in one
process, until `--seconds` of request time have been measured, and the
end-to-end metrics are printed. With `--trace 1` the workload's fixed
first `trace_requests` requests run three times untraced and three times
under the outside-in tracer, alternating, and the per-layer metrics are printed
(counts from one traced pass, which every pass must repeat exactly;
times as medians over the passes). `--seconds` does not apply there.

Every output is checked outside the timed region; a request that raises
or fails its check is counted in `failed` and the run goes on. A sha256
over the canonical outputs of the first `digest_requests` requests is
printed with each run, so two builds can show byte-identical outputs.
The last line of standard output is the JSON result; a run record with
the digest, failures and environment goes to `.bench_out/`.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKERS = "1"
SETUP_SPAWNS = 9
WARMUP_S = 1.0
TRACE_PASSES = 3

# per-layer metrics printed with --trace 1; the full table, with the busy
# and self times of every wrapped function, goes to the spans file. Times
# are listed only for layers that every workload runs (each request parses
# an instance, which validates its cone through DD and LPs), so no listed
# time is an idle layer's constant zero.
PER_LAYER = {
    "linprog.self_s": "s",
    "linprog.lp_solve.calls": "count",
    "linprog.lp_solve.self_s": "s",
    "linprog.lp_solve.mean_us": "us",
    "linprog.lp_solve.rows_mean": "rows",
    "linprog.lp_solve.infeasible": "count",
    "linprog.lp_solve.unbounded": "count",
    "linprog.lp_solve.self_share": "ratio",
    "linprog.feasible_point.calls": "count",
    "linprog.feasible_point.busy_s": "s",
    "rationals.self_s": "s",
    "rationals.elim.calls": "count",
    "rationals.elim.self_s": "s",
    "cones.self_s": "s",
    "cones.cone_is_trivial.calls": "count",
    "cones.cone_is_trivial.busy_s": "s",
    "cones.dd.calls": "count",
    "cones.dd.busy_s": "s",
    "cones.dd.rays_out": "count",
    "funcs.self_s": "s",
    "funcs.full_dim_selections.calls": "count",
    "funcs.full_dim_selections.busy_s": "s",
    "funcs.full_dim_selections.regions_mean": "regions",
    "funcs.kconvexity_check.calls": "count",
    "funcs.scalarized_subdiff.calls": "count",
    "funcs.clarke_subdiff_component.calls": "count",
    "geometry.self_s": "s",
    "geometry.g1_cone.calls": "count",
    "geometry.g2_cone.calls": "count",
    "geometry.g2_cone.calls_per_request": "1/request",
    "geometry.tangent_cone.calls": "count",
    "certify.self_s": "s",
    "certify.certify.calls": "count",
    "certify.efficiency_check.calls": "count",
    "certify.efficiency_check.lps_per_call": "lps/call",
    "oracle.robust_oracle.calls": "count",
    "oracle.candidates_generated": "count",
    "oracle.candidates_evaluated": "count",
    "oracle.evaluated_per_generated": "ratio",
    "oracle.lps_per_candidate": "lps/cand",
    "gapfn.gap_necessary_check.calls": "count",
    "gapfn.zero_in_gap.calls": "count",
    "gapfn.enumerate_faces.calls": "count",
    "gapfn.polytope_vertices.calls": "count",
    "gapfn.efficient_faces.calls": "count",
    "gapfn.lps_per_zero_in_gap": "lps/call",
    "instances.self_s": "s",
    "instances.parse_instance_text.calls": "count",
    "instances.parse_instance_text.busy_s": "s",
    "requests": "count",
    "trace_overhead_ratio": "ratio",
}


class HarnessError(Exception):
    """The benchmark itself cannot run (as opposed to a failed request)."""


def load_vopcert():
    init = os.path.join(SRC, "vopcert", "__init__.py")
    if not os.path.isfile(init):
        raise HarnessError(f"no vopcert sources at {SRC}; run from a checkout")
    # pool workers are forked processes: they would escape both the single
    # client and the tracer's wrappers
    os.environ["VOPCERT_ORACLE_WORKERS"] = WORKERS
    sys.path.insert(0, SRC)
    import vopcert
    import vopcert.cli  # noqa: F401  (the CLI layer is a tracing target)
    if os.path.realpath(vopcert.__file__) != os.path.realpath(init):
        raise HarnessError(f"imported vopcert from {vopcert.__file__}, not {SRC}")
    return vopcert


class Tally:
    """Attempts, failures, the output digest and the repeat check."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = hashlib.sha256()
        self.seen = {}

    def record(self, doc, output, error):
        wl = self.workload
        self.attempted += 1
        if error is not None:
            problems = [f"raised {error!r}"]
            view = f"error {type(error).__name__}"
        else:
            try:
                problems = wl.check(doc, output)
            except Exception as exc:  # a crashing check is a failed request
                problems = [f"check raised {exc!r}"]
            view = workloads.canonical(wl.view(output))
        key = hashlib.sha256(doc.encode()).digest()
        vkey = hashlib.sha256(view.encode()).digest()
        if self.seen.setdefault(key, vkey) != vkey:
            problems = problems + ["output differs from an earlier run of "
                                   "the same document"]
        if self.attempted <= wl.digest_requests:
            self.digest.update(view.encode() + b"\n")
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problems)
        return not problems


def timed_request(workload, doc):
    """(seconds, output, error) of one request; nothing else is timed."""
    start = time.perf_counter()
    try:
        output, error = workload.request(doc), None
    except Exception as exc:  # counted as a failed request; the run goes on
        output, error = None, exc
    return time.perf_counter() - start, output, error


def serve(workload, doc, tally):
    """One timed request, then its check after the clock stops."""
    elapsed, output, error = timed_request(workload, doc)
    return elapsed, tally.record(doc, output, error)


def measure_setup(docs):
    """Median wall time of a fresh interpreter that imports the CLI and
    parses one instance document, the start-up every CLI invocation pays.
    Spawn k parses the workload's k-th document."""
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import vopcert.cli\n"
            "vopcert.parse_instance_text(sys.stdin.read())\n")
    env = dict(os.environ, VOPCERT_ORACLE_WORKERS=WORKERS)
    times = []
    for doc in docs:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-I", "-c", code, SRC],
                              input=doc, text=True, capture_output=True,
                              env=env, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode:
            raise HarnessError(f"set-up interpreter failed: {proc.stderr}")
    return statistics.median(times)


def timed_run(workload, seconds, tally):
    items = workload.items()
    # untimed work (checks, document generation) is bounded too, so a
    # build whose requests fail at once still ends in time
    stop = time.perf_counter() + 2 * seconds + 30
    # the first requests of a fresh process run markedly slower than later
    # ones; the clock starts after them
    warm = 0.0
    while warm < WARMUP_S and time.perf_counter() < stop:
        warm += serve(workload, next(items), tally)[0]
    latencies = []
    total = 0.0
    while (total < seconds and time.perf_counter() < stop) or not latencies:
        elapsed, ok = serve(workload, next(items), tally)
        latencies.append((elapsed, ok))
        total += elapsed
    # finish the digest prefix on a build too slow to reach it in time
    while tally.attempted < workload.digest_requests:
        serve(workload, next(items), tally)
    done = [t for t, ok in latencies if ok]
    return {
        "instances_per_s": len(done) / total,
        "latency_p50_ms": statistics.median(t for t, _ in latencies) * 1e3,
    }, len(latencies)


def layer_metrics(tr, requests, wall):
    """Every per-layer figure of one traced pass, keyed by metric name."""
    m = {}
    for _, _, name in tracer.targets():
        m[f"{name}.calls"] = tr.calls.get(name, 0)
        m[f"{name}.busy_s"] = tr.busy.get(name, 0.0)
        m[f"{name}.self_s"] = tr.self_time.get(name, 0.0)
    for layer in tracer.LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in tr.self_time.items()
                                   if k.startswith(layer + "."))
    c = tr.counts.get

    def ratio(a, b):
        return a / b if b else 0.0

    lp = "linprog.lp_solve"
    m[f"{lp}.mean_us"] = ratio(m[f"{lp}.busy_s"] * 1e6, m[f"{lp}.calls"])
    m[f"{lp}.rows_mean"] = ratio(c(f"{lp}.rows", 0), m[f"{lp}.calls"])
    m[f"{lp}.infeasible"] = c(f"{lp}.infeasible", 0)
    m[f"{lp}.unbounded"] = c(f"{lp}.unbounded", 0)
    m[f"{lp}.self_share"] = ratio(m[f"{lp}.self_s"], wall)
    m["cones.dd.rays_out"] = c("cones.dd.rays_out", 0)
    m["funcs.full_dim_selections.regions_mean"] = ratio(
        c("funcs.full_dim_selections.regions", 0),
        m["funcs.full_dim_selections.calls"])
    m["geometry.g2_cone.calls_per_request"] = ratio(
        m["geometry.g2_cone.calls"], requests)
    eff = "certify.efficiency_check"
    m[f"{eff}.lps_per_call"] = ratio(tr.under(eff, tracer.LP_NAMES),
                                     m[f"{eff}.calls"])
    orc = "oracle.robust_oracle"
    generated = c("oracle.candidates_generated", 0)
    evaluated = tr.under(orc, ("oracle.perturbed_instance",))
    m["oracle.candidates_generated"] = generated
    m["oracle.candidates_evaluated"] = evaluated
    m["oracle.evaluated_per_generated"] = ratio(evaluated, generated)
    m["oracle.candidates_per_s"] = ratio(evaluated, m[f"{orc}.busy_s"])
    m["oracle.lps_per_candidate"] = ratio(tr.under(orc, tracer.LP_NAMES),
                                          evaluated)
    zig = "gapfn.zero_in_gap"
    m["gapfn.lps_per_zero_in_gap"] = ratio(tr.under(zig, tracer.LP_NAMES),
                                           m[f"{zig}.calls"])
    m["requests"] = requests
    return m


def _is_count(value):
    return isinstance(value, int)


def traced_run(workload, tally, spans_path):
    """Untraced and traced passes over the same fixed requests, alternating
    so that warm-up falls on neither side of the overhead ratio."""
    docs = [doc for doc, _ in zip(workload.items(),
                                  range(workload.trace_requests))]
    plain, passes = [], []
    for _ in range(TRACE_PASSES):
        plain.append(sum(serve(workload, doc, tally)[0] for doc in docs))
        tr = tracer.Tracer()
        origin = time.perf_counter()
        with tr:
            done = []
            for i, doc in enumerate(docs):
                tr.request = i
                done.append(timed_request(workload, doc))
        # checks call into vopcert too, so they run once the tracer is off
        wall = 0.0
        for doc, (elapsed, output, error) in zip(docs, done):
            tally.record(doc, output, error)
            wall += elapsed
        passes.append((layer_metrics(tr, len(docs), wall), wall))
    first = passes[0][0]
    stable = all({k: v for k, v in m.items() if _is_count(v)} ==
                 {k: v for k, v in first.items() if _is_count(v)}
                 for m, _ in passes)
    metrics = {}
    for key, value in first.items():
        metrics[key] = value if _is_count(value) else statistics.median(
            m[key] for m, _ in passes)
    metrics["trace_overhead_ratio"] = statistics.median(
        w for _, w in passes) / statistics.median(plain)
    with open(spans_path, "w") as fh:
        json.dump({"workload": workload.name, "seed": workload.seed,
                   "fields": ["request", "name", "start_us", "end_us",
                              "parent"],
                   "metrics": metrics,
                   "spans": tr.span_records(origin)}, fh)
    return metrics, stable


def environment():
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "VOPCERT_ORACLE_WORKERS": WORKERS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    vopcert = load_vopcert()
    if args.workload not in workloads.WORKLOADS:
        raise HarnessError(f"unknown workload {args.workload!r}; choose from "
                           f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](vopcert, args.seed)
    tally = Tally(workload)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")

    if args.trace:
        layers, stable = traced_run(workload, tally, stem + "-spans.json")
        if not stable:
            tally.failed += 1
            tally.problems.append(["per-layer counts differ between passes"])
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in PER_LAYER.items()}
        samples = workload.trace_requests
    else:
        first = list(zip(workload.items(), range(SETUP_SPAWNS)))
        setup_s = measure_setup([doc for doc, _ in first])
        e2e, samples = timed_run(workload, args.seconds, tally)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {"instances_per_s": "1/s", "latency_p50_ms": "ms",
                 "setup_s": "s", "peak_rss_mb": "MiB"}
        values = dict(e2e, setup_s=setup_s, peak_rss_mb=rss_mb)
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    digest = tally.digest.hexdigest()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "samples": samples,
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_fraction": tally.failed / tally.attempted,
        "digest_requests": workload.digest_requests, "digest": digest,
        "problems": tally.problems, "environment": environment(),
        "metrics": metrics,
    }
    with open(stem + f"-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"{args.workload} seed={args.seed} samples={samples} "
          f"attempted={tally.attempted} failed={tally.failed} "
          f"digest[{workload.digest_requests}]={digest}")
    for problem in tally.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
