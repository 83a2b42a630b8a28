#!/usr/bin/env python3
"""Benchmark of minsurf, timed from outside through its public functions.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a minsurf checkout; it imports minsurf from ./src.
Workloads (see bench/README.md):

  analyze-catalog  warm in-process run_analysis + numeric rotation indices
  mesh-catalog     sample_domain + build_mesh + export_obj
  cli-charts       `python -m minsurf.cli analyze FILE --json OUT`, one fresh
                   interpreter per .wd file

Each run repeats whole rounds of the workload's operations for about S
seconds, one operation at a time, then checks every output against
bench/oracle.py (outside the timed part) and prints one JSON object as its
last line.  With --trace 0 it reports the end-to-end metrics, their times
scaled to a reference machine speed by calibration kernels run between
operations; with --trace 1 it wraps minsurf's public functions and reports
per-layer metrics instead.
"""

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
import warnings

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 3          # set-ups in fresh interpreters, for setup_s
# Kernel times that define the reference speed all timings are scaled to.
CPU_KERNEL_REF_S = 0.015
STARTUP_KERNEL_REF_S = 0.20
STARTUP_PROBES = 5        # runs of `python -c pass` / `import minsurf` when tracing
CHILD_TIMEOUT_S = 120
MESH_ORACLE_VERTICES = 3  # sampled vertices per mesh checked by mpmath.quad


# stderr text of `minsurf analyze` -> the named fault it shows
FAULTS = [
    ("path quadrature did not converge", "anchor-quadrature"),
    ("disagrees with end orders", "co-consistency"),
    ("nullity violated", "bilinear-check"),
    ("Laurent relations violated", "bilinear-check"),
    ("datum rejected", "false-rejection"),
    ("boundary terms did not stabilize", "tc-numeric"),
]


def child_env():
    return dict(os.environ, PYTHONPATH=SRC)


class Result:
    """What one run found: operation counts, metrics and check errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict = {}
        self.rounds = 0
        self.wall_s = 0.0         # unscaled time of the timed operations
        self.speed = 1.0          # reference kernel time / measured kernel time

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}


CPU_KERNEL_POLYS = [[complex(k + 1, (-1) ** k) for k in range(n)] for n in (5, 9, 13, 17)]


def cpu_kernel_s():
    """Wall time of a fixed in-process kernel that does not use minsurf.

    It mixes interpreter-bound Python with small LAPACK calls, as minsurf
    does.  A shared machine's speed drifts (by up to 2x over tens of
    seconds on the 2-core machine of bench/README.md), and this kernel
    drifts with it; timed operations are scaled by it.
    """
    import numpy as np
    t0 = time.perf_counter()
    acc = 0
    for i in range(40000):
        acc += i % 7
    for p in CPU_KERNEL_POLYS:
        for _ in range(15):
            np.roots(p)
            np.polyval(p, 0.3 + 0.1j)
    return time.perf_counter() - t0


def startup_kernel_s():
    """Wall time of a fresh interpreter that imports numpy: the kernel for
    CLI invocations and set-ups, which are mostly interpreter start-up."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


def scale(wall, cals, reference):
    """``wall`` at the reference speed, where the kernel takes ``reference``."""
    return wall * reference / statistics.median(cals)


def timed_rounds(items, op, seconds, result, kernel, reference, keep=None):
    """Whole rounds of ``op`` over ``items`` until the next would overrun.

    Every operation is bracketed by runs of ``kernel``.  Returns
    [(item, output or None, scaled seconds)] over all rounds, each wall time
    scaled by the median of the six kernel runs around it; an operation that
    raises counts as failed.  ``keep(item, output)``, applied untimed,
    replaces an output by what the checks need of it.
    """
    kernel()  # warm-up
    records, walls, cals = [], [], [kernel()]
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        for item in items:
            result.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op(item)
            except Exception:  # a failed operation is reported, not fatal
                out = None
                result.failed += 1
                print(f"bench: {item[0]} failed:\n{traceback.format_exc()}", file=sys.stderr)
            walls.append(time.perf_counter() - t0)
            if keep is not None and out is not None:
                out = keep(item, out)
            cals.append(kernel())
            records.append((item, out))
        result.rounds += 1
        now = time.perf_counter()
        if now - begin + (now - start) > seconds:
            break
    result.wall_s = sum(walls)
    result.speed = reference / statistics.median(cals)
    return [(item, out, scale(wall, cals[max(0, i - 2):i + 4], reference))
            for i, ((item, out), wall) in enumerate(zip(records, walls))]


def median_times(records):
    """Per operation, the median of its scaled times over the rounds.

    Throughput is taken over one round of these medians, so that a slow
    spell of the shared machine during one round weighs as one sample.
    Failed operations are left out.
    """
    walls = {}
    for item, out, dt in records:
        if out is not None:
            walls.setdefault(item[0], []).append(dt)
    return {name: statistics.median(w) for name, w in walls.items()}


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


def negative_control(result, what, errors):
    """A deliberately broken output must make the check fail."""
    if not errors:
        result.errors.append(f"negative control not caught: {what}")


# -- analyze-catalog ---------------------------------------------------------

def setup_analyze(seed, workdir):
    from inputs import ANALYZE_SURFACES, catalog_entry
    names = list(ANALYZE_SURFACES)
    random.Random(seed).shuffle(names)
    return [(name, catalog_entry(name).data) for name in names]


def run_analyze(items, seconds, result, trace):
    import minsurf as ms
    import oracle
    from inputs import ANALYZE_LARGEST, R_LIST

    def op(item):
        w = item[1]
        rep = ms.run_analysis(w)
        return rep, [ms.rotation_index_numeric(w, e.puncture, R_LIST, end=e) for e in rep.ends]

    op(next(it for it in items if it[0] == "catenoid"))  # warm-up, untimed
    trace.start()
    records = timed_rounds(items, op, seconds, result, cpu_kernel_s, CPU_KERNEL_REF_S)
    result.metric("peak_rss_mb", peak_rss_mb(), "MB")
    trace.stop()
    ok = [(item[0], out, dt) for item, out, dt in records if out is not None]
    times = median_times(records)
    result.metric("throughput_per_s", len(times) / sum(times.values()), "1/s")
    result.metric("key_op_s", times.get(ANALYZE_LARGEST, float("nan")), "s")

    first = {}
    for name, (rep, rots), _dt in ok:
        s = oracle.summary_from_report(rep)
        if name in first:
            if (s, rots) != first[name]:
                result.errors.append(f"{name}: output differs between rounds")
            continue
        first[name] = (s, rots)
        result.errors += oracle.check_summary(name, s, rots)
    jm = next(n for n in first if n.startswith("generalized"))
    wrong = dict(first[jm][0], d=first[jm][0]["d"] + 1)
    negative_control(result, "wrong degree", oracle.check_summary(jm, wrong, first[jm][1]))


# -- mesh-catalog ------------------------------------------------------------

def setup_mesh(seed, workdir):
    from inputs import MESH_SURFACES, catalog_entry
    names = list(MESH_SURFACES)
    random.Random(seed).shuffle(names)
    os.makedirs(workdir, exist_ok=True)
    return [(name, catalog_entry(name).data, os.path.join(workdir, f"{name}.obj"))
            for name in names]


def run_mesh(items, seconds, result, trace, seed):
    import numpy as np

    import minsurf as ms
    import oracle
    from inputs import MESH_LARGEST, MESH_SETTINGS

    def op(item):
        _name, w, path = item
        mesh = ms.build_mesh(w, ms.sample_domain(w, **MESH_SETTINGS))
        return mesh, ms.export_obj(mesh, path)

    last = {}

    def keep(item, out):
        """Only the latest mesh of each surface stays in memory."""
        mesh, paths = out
        last[item[0]] = (item, mesh, paths)
        return (hashlib.sha256(mesh.vertices.tobytes() + mesh.faces.tobytes()).hexdigest(),
                mesh.vertices.shape[0])

    op(next(it for it in items if it[0] == "catenoid"))  # warm-up, untimed
    trace.start()
    records = timed_rounds(items, op, seconds, result, cpu_kernel_s, CPU_KERNEL_REF_S, keep)
    result.metric("peak_rss_mb", peak_rss_mb(), "MB")
    trace.stop()
    times = median_times(records)
    vertices = {item[0]: out[1] for item, out, _ in records if out is not None}
    result.metric("throughput_per_s", sum(vertices.values()) / sum(times.values()), "1/s")
    result.metric("key_op_s", times.get(MESH_LARGEST, float("nan")), "s")

    digests = {}
    for item, out, _dt in records:
        if out is not None and digests.setdefault(item[0], out[0]) != out[0]:
            result.errors.append(f"{item[0]}: mesh differs between rounds")
    rng = random.Random(seed)
    for name in sorted(last):
        if oracle.null_defect(name) > 1e-12:
            result.errors.append(f"{name}: the oracle's own forms are not conformal")
        (_, w, _), mesh, paths = last[name]
        result.errors += oracle.check_mesh_structure(name, mesh, paths)
        root = int(np.argmin(np.abs(mesh.param - w.basepoint)))
        sample = rng.sample(range(len(mesh.param)), MESH_ORACLE_VERTICES)
        refs = oracle.mesh_references(name, mesh, root, sample)
        result.errors += oracle.check_mesh_values(name, mesh.vertices, root, sample, refs)
        bent = mesh.vertices.copy()
        bent[sample[0]] += 1e-6 * (1.0 + np.abs(bent[sample[0]]))
        negative_control(result, f"perturbed vertex of {name}",
                         oracle.check_mesh_values(name, bent, root, sample, refs))


# -- cli-charts --------------------------------------------------------------

def setup_cli(seed, workdir):
    from inputs import cli_charts
    return cli_charts(seed, os.path.join(workdir, "charts"))


def invoke(chart, workdir, n, traced):
    """One `minsurf analyze` in a fresh interpreter.

    Returns (exit code or None after a timeout, report path, span file path).
    """
    report = os.path.join(workdir, f"{n}.json")
    spans = os.path.join(workdir, f"{n}.spans.tsv")
    args = ["analyze", chart.path, "--json", report]
    cmd = [sys.executable, os.path.join(BENCH, "traced_cli.py"), spans, *args] if traced \
        else [sys.executable, "-m", "minsurf.cli", *args]
    with open(os.path.join(workdir, f"{n}.out"), "w") as so, \
            open(os.path.join(workdir, f"{n}.err"), "w") as se:
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=child_env(), cwd=ROOT)
        # a blocking wait: Popen.wait(timeout) polls and rounds walls up to 50 ms
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
        if code == -signal.SIGKILL:
            code = None
    return code, report, spans


def fault_of(stderr_text):
    for needle, fault in FAULTS:
        if needle in stderr_text:
            return fault
    return "unnamed"


def run_cli(charts, seconds, result, trace, workdir):
    import oracle
    from spans import load_totals

    calls = os.path.join(workdir, "calls")
    os.makedirs(calls, exist_ok=True)
    counter = itertools.count()

    def op(chart):
        n = next(counter)
        code, report, spans = invoke(chart[1], calls, n, trace.on)
        if trace.on and os.path.exists(spans):
            trace.add(load_totals(spans))
        return code, report, n

    items = [(c.name, c) for c in charts]
    records = timed_rounds(items, op, seconds, result, startup_kernel_s, STARTUP_KERNEL_REF_S)
    result.metric("peak_rss_mb", peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")

    summaries, texts, faults, done = {}, {}, {}, []
    for (name, chart), (code, report, n), dt in records:
        if code != 0:
            with open(os.path.join(calls, f"{n}.err")) as fh:
                faults[name] = "timeout" if code is None else fault_of(fh.read())
            continue
        with open(report) as fh:
            text = fh.read()
        if texts.setdefault(name, text) != text:
            result.errors.append(f"{name}: report differs between rounds")
        try:
            s = oracle.summary_from_json(json.loads(text))
        except (KeyError, ValueError) as exc:
            result.errors.append(f"{name}: unreadable report ({exc!r})")
            continue
        if oracle.tc_sign_flipped(s):
            faults[name] = "tc-numeric-sign"
            continue
        summaries[name] = (chart, s)
        done.append(dt)
    result.failed += len(records) - len(done)
    result.metric("throughput_per_s", len(done) / sum(dt for _, _, dt in records), "1/s")
    result.metric("key_op_s", statistics.median(done) if done else float("nan"), "s")

    for name, (chart, s) in summaries.items():
        result.errors += oracle.check_summary(name, s, surface=chart.surface)
        unit = summaries.get(f"unit-{chart.surface}")
        if chart.kind != "unit" and unit is not None:
            result.errors += oracle.check_invariance(name, unit[1], s)
    for name in sorted(faults):
        print(f"bench: {name} failed: {faults[name]}", file=sys.stderr)

    chart, s = next(v for k, v in sorted(summaries.items()) if not k.startswith("unit-"))
    unit = summaries[f"unit-{chart.surface}"][1]
    broken = dict(s, ends=[dict(s["ends"][0], rot=s["ends"][0]["rot"] + 1)] + s["ends"][1:])
    negative_control(result, "broken chart invariant",
                     oracle.check_invariance(chart.name, unit, broken))
    negative_control(result, "wrong degree",
                     oracle.check_summary(chart.name, dict(s, d=s["d"] + 1), surface=chart.surface))


# -- tracing -----------------------------------------------------------------

class Trace:
    """Per-layer totals over the timed rounds, in this process or children."""

    def __init__(self, on):
        self.on = on
        self.tracer = None
        self.totals: dict = {}
        self.export_bytes = 0

    def start(self):
        if self.on:
            from spans import Tracer
            self.tracer = Tracer()
            self.tracer.install()

    def stop(self):
        if self.tracer is not None:
            self.add(self.tracer.totals())
            self.export_bytes += self.tracer.export_bytes
            self.tracer.dump(os.path.join(OUT, "spans.tsv"))

    def add(self, totals):
        for name, (calls, self_s) in totals.items():
            c, s = self.totals.get(name, (0, 0.0))
            self.totals[name] = (c + calls, s + self_s)

    def report(self, result):
        """Per-round layer metrics, plus interpreter start and import cost.

        The metric names are the ``per_layer`` entries of BENCHMARK.json:
        ``<module>.<function>_calls`` (count) or ``_s`` (self time).
        """
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        per_round = 1.0 / result.rounds
        for metric in names:
            layer, kind = metric.rsplit("_", 1)
            if layer.startswith("cli."):
                continue
            if metric == "mesh.export_obj_bytes":
                value, unit = self.export_bytes * per_round, "bytes"
            else:
                calls, self_s = self.totals.get(layer, (0, 0.0))
                value, unit = (calls * per_round, "count") if kind == "calls" \
                    else (self_s * per_round, "s")
            if unit != "s" and float(value).is_integer():
                value = int(value)
            result.metric(metric, value, unit)
        start = startup_s(["-c", "pass"])
        result.metric("cli.import_s", startup_s(["-c", "import minsurf"]) - start, "s")
        result.metric("cli.interpreter_start_s", start, "s")


def startup_s(args):
    walls = []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT, check=True)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


# -- entry point -------------------------------------------------------------

SETUP = {"analyze-catalog": setup_analyze, "mesh-catalog": setup_mesh, "cli-charts": setup_cli}


def setup_probe(workload, seed, n):
    """Set-up seconds of a fresh interpreter (import minsurf + build inputs)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--setup-only", str(n)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=int, metavar="N", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "minsurf", "__init__.py")):
        print("bench: no ./src/minsurf; run from the root of a minsurf checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    warnings.simplefilter("ignore")  # sample_domain warns when it shrinks r_max
    tag = "run" if args.setup_only is None else f"probe{args.setup_only}"
    workdir = os.path.join(OUT, args.workload, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    t0 = time.perf_counter()
    import minsurf
    if not os.path.abspath(minsurf.__file__).startswith(SRC + os.sep):
        print(f"bench: minsurf imported from {minsurf.__file__}, not ./src", file=sys.stderr)
        return 2
    items = SETUP[args.workload](args.seed, workdir)
    setup_s = time.perf_counter() - t0
    if args.setup_only is not None:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = Result()
    trace = Trace(bool(args.trace))
    if args.workload == "analyze-catalog":
        run_analyze(items, args.seconds, result, trace)
    elif args.workload == "mesh-catalog":
        run_mesh(items, args.seconds, result, trace, args.seed)
    else:
        run_cli(items, args.seconds, result, trace, workdir)
    if args.trace:
        result.metrics = {}
        trace.report(result)
    else:
        samples = []
        for n in range(SETUP_PROBES):
            before = startup_kernel_s()
            probe = setup_probe(args.workload, args.seed, n)
            samples.append(scale(probe, [before, startup_kernel_s()], STARTUP_KERNEL_REF_S))
        result.metric("setup_s", statistics.median(samples), "s")
    shutil.rmtree(os.path.join(OUT, args.workload), ignore_errors=True)

    for err in result.errors:
        print(f"bench: CHECK FAILED: {err}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {result.rounds} rounds, "
          f"{result.attempted} operations, {result.failed} failed; operations took "
          f"{result.wall_s:.2f} s wall at speed {result.speed:.3f} of the reference; "
          f"run took {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    print(json.dumps({"correct": not result.errors, "attempted": result.attempted,
                      "failed": result.failed, "metrics": result.metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, BENCH)
    raise SystemExit(main())
