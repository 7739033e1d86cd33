"""Benchmark of rejectsvm: one workload per process, one op at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study --seed 1 --seconds 15 --trace 0

The package is imported from the checkout's ``src/``; nothing is built or
installed.  BLAS is pinned to one thread before numpy loads, and the run
refuses to start when the pin did not take.  The workload's inputs come from
``--seed``.  The run makes ``max(1, round(seconds / pass_seconds))`` passes
over the workload's ops (a closed loop with one client), checks every output
outside the timed region, and prints one JSON object as the last line of
standard output: end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``.  A set-up (the package's own import, data generation, CSV files, models) is
sampled five times, spread between the ops, and the mean is ``setup_s``.
Op latencies and set-up samples are in scaled seconds: each is divided by
readings of the host's speed taken just before and after it (reference.py).
NOTES.md defines every metric.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
SAMPLE_MIN_S = 0.3
# workloads.py imports numpy, so it loads only after the pin
WORKLOAD_NAMES = ("study", "cv_train", "certify", "diagnose")
_THREAD_QUERIES = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "scipy_openblas_get_num_threads64_")


class Refused(Exception):
    """The benchmark cannot run in this checkout or environment."""


@dataclass
class OpRecord:
    pass_no: int
    label: str
    seconds: float
    rows: int
    error: str = None
    problems: list = field(default_factory=list)
    fits: list = field(default_factory=list)  # (kind, d, pivots) per fit
    parts: dict = None                        # a round's call -> seconds
    measured: float = None                    # seconds before scaling

    @property
    def failed(self):
        return self.error is not None or bool(self.problems)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Pin BLAS threads, then import rejectsvm from this checkout's src/."""
    if "numpy" in sys.modules:
        raise Refused("numpy was loaded before the BLAS thread pin")
    os.environ.update(PINNED)
    if not (SRC / "rejectsvm" / "__init__.py").is_file():
        raise Refused(f"no package source at {SRC / 'rejectsvm'}")
    sys.path.insert(0, str(SRC))
    import rejectsvm.cli
    if Path(rejectsvm.__file__).resolve().parent != SRC / "rejectsvm":
        raise Refused(f"imported rejectsvm from {rejectsvm.__file__}")
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)


def _package_modules():
    return [k for k in sys.modules
            if k == "rejectsvm" or k.startswith("rejectsvm.")]


def reimport_package():
    """Run the package's module code again, then put the first modules back.

    The ops keep using the modules loaded first; the fresh ones are dropped.
    numpy and scipy stay loaded, so this times the package's own import.
    """
    loaded = {k: sys.modules.pop(k) for k in _package_modules()}
    try:
        importlib.import_module("rejectsvm.cli")
    finally:
        for k in _package_modules():
            del sys.modules[k]
        sys.modules.update(loaded)


def set_up(wl, seed, workdir):
    """One set-up sample: the package's import, then the workload's inputs.

    The set-up repeats until SAMPLE_MIN_S has passed, into the same files,
    and the sample is the mean time of one set-up, in scaled seconds: set-up
    is mostly interpreted Python (module code, CSV formatting), so it is
    scaled by readings of reference.parse just before and after (see
    run_op).  Returns the ops of the last set-up and the sample.
    """
    from reference import parse  # imports numpy, so only after the pin
    workdir.mkdir(parents=True)
    gc.collect()
    before = parse()
    reps = 0
    t0 = time.perf_counter()
    while True:
        reimport_package()
        ops = wl.prepare(seed, str(workdir))
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= SAMPLE_MIN_S:
            break
    after = parse()
    return ops, elapsed / reps / (0.5 * (before + after))


def blas_threads():
    """Threads each loaded OpenBLAS reports, by library file name."""
    import ctypes
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1]})
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in _THREAD_QUERIES:
            query = getattr(lib, name, None)
            if query is not None:
                query.restype = ctypes.c_int
                threads[os.path.basename(path)] = query()
                break
    if not threads:
        raise Refused("found no OpenBLAS to verify the thread pin against")
    if any(n != 1 for n in threads.values()):
        raise Refused(f"BLAS thread pin did not take: {threads}")
    return threads


def environment(threads):
    import platform

    import numpy
    import scipy
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, **{k: os.environ[k] for k in PINNED},
            "blas_threads": threads}


def tail_latency(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  With ten samples or fewer no percentile
    qualifies, and the maximum (percentile 100) is reported instead.
    """
    s = sorted(values)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


def run_op(op, pass_no, fitlog, reference, tracer, op_id):
    """Run one op, call by call, between readings of the reference.

    A call's latency is its measured seconds divided by the mean reading
    just before and just after it (reference.py); the op's latency is the
    sum over its calls.  The readings fall outside every call and span.
    """
    fitlog.entries.clear()
    raws, scaled, measured = [], {}, {}
    before = reference()
    for call in op.calls or [op]:
        span = tracer.open_op(op_id, call.label) if tracer else None
        t0 = time.perf_counter()
        raws.append(call.run())
        seconds = time.perf_counter() - t0
        if span:
            tracer.close_op(span)
        after = reference()
        measured[call.label] = seconds
        scaled[call.label] = seconds / (0.5 * (before + after))
        before = after
    error, problems = op.check(raws if op.calls else raws[0], fitlog.entries)
    return OpRecord(pass_no, op.label, sum(scaled.values()), op.rows, error,
                    problems, fitlog.summary(),
                    scaled if op.calls else None, sum(measured.values()))


def end_to_end(records, pass_times, setup_s):
    lat = [r.seconds for r in records]
    scored = [r for r in records if r.rows]
    tail, _ = tail_latency(lat)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(pass_times), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail, "s"),
        "rows_per_s": (sum(r.rows for r in scored)
                       / sum(r.seconds for r in scored), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(tracer, records, passes):
    selfs = spans.self_times(tracer.spans)
    op_pass = {i: r.pass_no for i, r in enumerate(records)}
    by_pass = {p: ([], []) for p in range(passes)}
    for rec, s in zip(tracer.spans, selfs):
        group = by_pass[op_pass[rec[4]]]
        group[0].append(rec)
        group[1].append(s)
    rows = [spans.layer_metrics(*by_pass[p]) for p in range(passes)]
    layer = {}
    for key, first in rows[0].items():
        if isinstance(first, int):
            # counts are exact: report the first pass
            layer[key] = (first, "count")
        else:
            unit = "us" if key.endswith("us_per_pivot") else "s"
            layer[key] = (statistics.median(r[key] for r in rows), unit)
    unit = {"dictionary.evaluate_rows": "rows", "evaluate.rows": "rows",
            "model_io.load_data_bytes": "bytes",
            "model_io.write_rows_bytes": "bytes"}
    for key, u in unit.items():
        layer[key] = (layer[key][0], u)
    # traced minus untraced time, estimated as spans per pass times the
    # calibrated cost of one traced call
    calls = statistics.median(len(by_pass[p][0]) for p in range(passes))
    layer["trace.overhead_s"] = (calls * spans.per_call_cost(), "s")
    failed = sum(r.failed for r in records)
    layer["ops_failed_frac"] = (failed / len(records), "ratio")
    mix = spans.layer_mix(tracer.spans, selfs)
    return layer, mix


def run(args):
    t_start = time.perf_counter()
    sys.dont_write_bytecode = True
    import_package()
    threads = blas_threads()
    import workloads
    import_s = time.perf_counter() - t_start

    wl = workloads.WORKLOADS[args.workload]()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops, first = set_up(wl, args.seed, workdir / "inputs")
        setup_times = [first]
        passes = max(1, round(args.seconds / wl.pass_seconds))
        schedule = [(p, op) for p in range(passes) for op in ops]
        fitlog = workloads.FitLog()
        tracer = spans.Tracer() if args.trace else None
        records, pass_times = [], [0.0] * passes
        fitlog.install()
        try:
            if tracer:
                tracer.install()
            for j, (p, op) in enumerate(schedule):
                rec = run_op(op, p, fitlog, wl.reference, tracer,
                             len(records))
                records.append(rec)
                pass_times[p] += rec.seconds
                # the other set-ups are spread between the ops, so that a
                # few seconds of a slow host do not set the figure
                due = 1 + round((j + 1) * (SETUP_SAMPLES - 1) / len(schedule))
                while len(setup_times) < due:
                    spare = workdir / f"setup{len(setup_times)}"
                    setup_times.append(set_up(wl, args.seed, spare)[1])
                    shutil.rmtree(spare)
        finally:
            if tracer:
                tracer.uninstall()
            fitlog.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # the mean, not the median: the host runs Python at two speeds about
    # 1.5x apart for seconds at a time, and a median of five samples jumps
    # between them with the share of slow samples; the mean follows it
    setup_s = statistics.mean(setup_times)

    failed = [r for r in records if r.failed]
    lat = [r.seconds for r in records]
    tail, pct = tail_latency(lat)
    print("env " + json.dumps(environment(threads)))
    print("workload " + json.dumps({
        "name": wl.name, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "passes": passes, "ops": len(records),
        "op_tail_percentile": round(pct, 2), "op_tail_samples": len(lat),
        "ops_failed_frac": len(failed) / len(records),
        "import_s": import_s, "setup_s_samples": setup_times}))
    latencies = {}
    for rec in records:
        latencies.setdefault(rec.label, []).append(round(rec.seconds, 4))
        for call, t in (rec.parts or {}).items():
            latencies.setdefault(call, []).append(round(t, 4))
        latencies.setdefault(rec.label + "_measured", []).append(
            round(rec.measured, 4))
    print("op_seconds " + json.dumps(
        {"passes": [round(t, 4) for t in pass_times], **latencies}))
    for rec in failed:
        print("failure " + json.dumps({
            "pass": rec.pass_no, "op": rec.label, "error": rec.error,
            "problems": rec.problems[:5]}))
    first_pass = [r for r in records if r.pass_no == 0]
    pivots = {"per_op": {r.label: sum(p or 0 for _, _, p in r.fits)
                         for r in first_pass}}
    if wl.name == "study":
        pivots["study_matrix"] = wl.pivot_matrix(first_pass)
    print("pivots " + json.dumps(pivots))

    if tracer:
        metrics, mix = per_layer(tracer, records, passes)
        print("layer_mix " + json.dumps(mix))
        if tracer.unbound:
            print("unbound " + json.dumps(tracer.unbound))
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
        with open(trace_path, "w") as fh:
            json.dump({"workload": wl.name, "seed": args.seed,
                       "ops": [[i, r.pass_no, r.label, r.seconds, r.error]
                               for i, r in enumerate(records)],
                       "spans": tracer.spans, "pivots": pivots}, fh)
        print(f"trace_file {trace_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(records, pass_times, setup_s)
    print(json.dumps({
        "correct": not any(r.problems for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    try:
        return run(args)
    except Refused as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
