"""chainmix benchmark: seeded end-to-end workloads with an optional traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig2-vem --seed 0 --seconds 30 --trace 0

The untraced run (--trace 0) cycles serially through the workload's fixed job
set, one job at a time in a closed loop, until --seconds have passed and every
job has run at least once.  It prints the end-to-end metrics named in
BENCHMARK.json.  The traced run (--trace 1) runs every job of the set once
untraced and once with spans recorded at chainmix module boundaries, in passes
until --seconds have passed, and prints the per-layer metrics, including the
tracing overhead.  Either way the last line of standard output is one JSON
object: correct, attempted, failed, metrics.

chainmix is imported from the checkout's own src/ directory; without it the
benchmark exits with a nonzero status and prints no result.
"""

from __future__ import annotations

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
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
# The host's speed changes every few seconds, by up to 2x between minutes,
# with no run-queue wait or steal time visible to the guest.  Each stretch of
# about SEGMENT_S of jobs is therefore bracketed by a fixed calibration
# kernel, and job times are scaled by KERNEL_NOMINAL_S over the kernel's local
# time; set-up times are scaled by the run's median kernel.  KERNEL_NOMINAL_S is the kernel's time in the host's fast state
# (2-core x86-64 VM, Python 3.11, numpy 2.4).
SEGMENT_S = 0.25
KERNEL_NOMINAL_S = 0.0036
DEFAULT_SEED = 0
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def import_chainmix():
    """Import chainmix from this checkout's src/, never from elsewhere."""
    if not (SRC / "chainmix" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'chainmix'} not found; run from a chainmix checkout")
    sys.path.insert(0, str(SRC))
    import chainmix
    if Path(chainmix.__file__).resolve().parent != SRC / "chainmix":
        sys.exit(f"perfbench: imported chainmix from {chainmix.__file__}, not {SRC}")
    return chainmix


def pin_malloc_threshold():
    """Fix glibc's mmap threshold at its 128 KiB default.

    glibc otherwise raises the threshold after a large block is freed, so
    later large arrays come from the heap and may stay resident; peak RSS then
    depends on allocation order rather than on the program's live memory.
    """
    import ctypes
    try:
        ctypes.CDLL("libc.so.6").mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD
    except (OSError, AttributeError):
        pass


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes
    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD commit read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_hash():
    """Hash of the chainmix sources and this benchmark, keying stored counts."""
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("chainmix/*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def print_header(args, code):
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads()
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# nproc={nproc} blas_threads={threads} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"commit={git_commit() or 'n/a (not a git checkout)'} source={code}")
    if threads is not None and threads > nproc:
        print(f"# warning: BLAS uses {threads} threads on {nproc} cores")


def time_kernel():
    """Wall time of fixed interpreter and small-array numpy work."""
    import numpy as np
    t0 = time.perf_counter()
    x = np.linspace(0.1, 5.0, 90).reshape(10, 3, 3)
    acc = 0
    for i in range(300):
        acc += float(np.log(x + i).sum()) > 0
        acc += sum(j * j % 7 for j in range(60))
    return time.perf_counter() - t0


def measure_setup(args, kernels):
    """Wall times of fresh processes that import chainmix and warm up.

    Each job derives its own inputs, so that cost is in the job times.  A
    calibration kernel is timed before and after each sample and appended to
    `kernels`.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    walls = []
    kernels.append(time_kernel())
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        walls.append(time.perf_counter() - t0)
        kernels.append(time_kernel())
    return walls


class Ledger:
    """Results per distinct job, with exact-count and output checks."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.first = {}  # job -> JobResult of its first execution
        self.times = {}  # job -> wall seconds per execution
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def run(self, j, workdir):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.workload.run(self.seed, j, workdir)
        except Exception:
            self.failed += 1
            self.problems.append(f"job {j} raised:\n{traceback.format_exc()}")
            return None
        finally:
            self.times.setdefault(j, []).append(time.perf_counter() - t0)
        if result.problems:
            self.failed += 1
            self.problems.extend(f"job {j}: {p}" for p in result.problems)
        if j not in self.first:
            self.first[j] = result
        elif result.counts != self.first[j].counts:
            self.problems.append(f"job {j}: counts {result.counts} differ from the "
                                 f"first execution {self.first[j].counts}")
        return result

    def quality(self):
        jobs = range(self.workload.jobs)
        done = [self.first[j] for j in jobs if j in self.first]
        restarts = self.workload.restarts * len(jobs)
        failed = sum(r.failed_restarts for r in done) + self.workload.restarts * (len(jobs) - len(done))
        return {
            "failed_frac": failed / restarts,
            "accuracy_mean": statistics.fmean(r.accuracy for r in done) if done else 0.0,
            "k_recovered_frac": sum(r.surviving == r.k_true for r in done) / len(jobs),
        }

    def check_reference(self):
        """At the default seed, compare each job's best run with committed values."""
        if self.seed != DEFAULT_SEED or not REFERENCE.is_file():
            return
        reference = json.loads(REFERENCE.read_text())
        tol = reference["tolerance"]
        for key, ref in reference["jobs"].get(self.workload.name, {}).items():
            got = self.first.get(int(key))
            if got is None:
                continue
            if (got.surviving != ref["surviving"]
                    or abs(got.accuracy - ref["accuracy"]) > tol["accuracy_abs"] + 1e-12
                    or abs(got.objective - ref["objective"])
                    > tol["objective_rel"] * max(1.0, abs(ref["objective"]))):
                self.problems.append(
                    f"job {key} at seed {DEFAULT_SEED}: surviving={got.surviving} "
                    f"accuracy={got.accuracy} objective={got.objective!r} do not match "
                    f"the reference {ref}")

    def record_reference(self):
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {
            "tolerance": {"objective_rel": 1e-9, "accuracy_abs": 0.02}, "jobs": {}}
        reference["jobs"][self.workload.name] = {
            str(j): {"surviving": r.surviving, "accuracy": r.accuracy, "objective": r.objective}
            for j, r in sorted(self.first.items())}
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")

    def check_counts(self, code, extra=None):
        """Counts of the same code, workload and seed must repeat across runs."""
        store = OUT / "counts" / code / f"{self.workload.name}-{self.seed}.json"
        store.parent.mkdir(parents=True, exist_ok=True)
        now = {str(j): r.counts for j, r in self.first.items()}
        if extra:
            now["trace"] = extra
        before = json.loads(store.read_text()) if store.is_file() else {}
        for key in sorted(set(now) & set(before)):
            if now[key] != before[key]:
                self.problems.append(f"counts for {key} differ from an earlier run of the "
                                     f"same code: {now[key]} vs {before[key]}")
        store.write_text(json.dumps({**before, **now}, sort_keys=True))


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(args, ledger, setup_walls, kernels, spec):
    """Closed-loop job runs; `kernels` holds the kernels timed during set-up.

    Set-up samples are scaled by the median of every kernel of the run
    rather than by their own brackets.  Imports follow the kernel only
    loosely from second to second, but the host's slow phases, which last
    minutes, move both.
    """
    jobs = ledger.workload.jobs
    scaled = {j: [] for j in range(jobs)}
    start = time.perf_counter()
    deadline = start + args.seconds
    runs = 0
    kernel_before = time_kernel()
    kernels.append(kernel_before)
    while runs < jobs or time.perf_counter() < deadline:
        segment, t0 = [], time.perf_counter()
        while (runs < jobs or time.perf_counter() < deadline) and (
                not segment or time.perf_counter() - t0 < SEGMENT_S):
            j = runs % jobs
            ledger.run(j, OUT)
            segment.append((j, ledger.times[j][-1]))
            runs += 1
        kernel_after = time_kernel()
        kernels.append(kernel_after)
        factor = 2 * KERNEL_NOMINAL_S / (kernel_before + kernel_after)
        for j, seconds in segment:
            scaled[j].append(seconds * factor)
        kernel_before = kernel_after
    wall = time.perf_counter() - start

    per_job = [statistics.median(scaled[j]) for j in range(jobs)]
    raw = [statistics.median(ledger.times[j]) for j in range(jobs)]
    setup_raw = statistics.median(setup_walls)
    print(f"# unscaled: setup_s {setup_raw:.6g} s, job_s_p50 {statistics.median(raw):.6g} s, "
          f"jobs_per_s {jobs / sum(raw):.6g} jobs/s; median kernel "
          f"{statistics.median(kernels) * 1e3:.4g} ms over {len(kernels)}")
    (OUT / f"jobs-{ledger.workload.name}-{args.seed}.json").write_text(json.dumps(
        {j: {"seconds": ledger.times[j], "scaled": scaled[j], **ledger.first[j].counts}
         for j in range(jobs) if j in ledger.first}))
    values = {
        "setup_s": setup_raw * KERNEL_NOMINAL_S / statistics.median(kernels),
        "job_s_p50": statistics.median(per_job),
        "jobs_per_s": jobs / sum(per_job),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **ledger.quality(),
    }
    print(f"# {runs} job runs over {jobs} distinct jobs in {wall:.2f} s; "
          f"job_s p10/p90 = {statistics.quantiles(per_job, n=10)[0]:.4f}/"
          f"{statistics.quantiles(per_job, n=10)[-1]:.4f} s over the {jobs} per-job medians")
    units = {"failed_frac": "fraction", "k_recovered_frac": "fraction",
             **{m["name"]: m["unit"] for m in spec["end_to_end"]}}
    for name, value in values.items():
        print(f"{name:>18} {value:.6g} {units[name]}")
    return {m["name"]: metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}


def traced_run(args, ledger, spec):
    import spans as tracing
    jobs = ledger.workload.jobs
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    passes = 0
    start = last = time.perf_counter()
    # Each job runs untraced and traced back to back, in alternating order, so
    # the host's speed swings hit both sides of the overhead alike.  A further
    # pass starts only if one as long as the last still fits in --seconds.
    while passes == 0 or 2 * time.perf_counter() - start - last <= args.seconds:
        last = time.perf_counter()
        for j in range(jobs):
            for traced_turn in ((False, True) if (j + passes) % 2 == 0 else (True, False)):
                t0 = time.perf_counter()
                if traced_turn:
                    with tracer.installed():
                        tracer.job = j
                        ledger.run(j, OUT)
                    traced += time.perf_counter() - t0
                else:
                    ledger.run(j, OUT)
                    untraced += time.perf_counter() - t0
        passes += 1
    tracer.dump(OUT / f"trace-{ledger.workload.name}-{args.seed}.json")

    values = tracing.layer_metrics(tracer, passes)
    values["trace.overhead_frac"] = 1.0 - untraced / traced
    quality = ledger.quality()
    values["fit.failed_frac"] = quality["failed_frac"]
    values["fit.k_recovered_frac"] = quality["k_recovered_frac"]
    print(f"# {passes} passes of {jobs} jobs: untraced {untraced:.3f} s, traced {traced:.3f} s; "
          f"per-layer values are per traced pass")
    for boundary in tracer.missing:
        print(f"# boundary absent: {boundary} is not defined")

    # BENCHMARK.json lists the metrics measured on every workload; the
    # layer-specific rest (digamma, EM, file I/O, SSA, clustering, KL report)
    # are printed as comment lines and written to the layers file.
    manifest = [m["name"] for m in spec["per_layer"]]
    for m in spec["per_layer"]:
        if tracing.UNITS.get(m["name"], m["unit"]) != m["unit"]:
            sys.exit(f"perfbench: BENCHMARK.json gives {m['name']} the unit {m['unit']}, "
                     f"spans.UNITS {tracing.UNITS[m['name']]}")
    absent = {name: f"no calls through {' or '.join(tracing.sources_of(name))} "
                    f"on {ledger.workload.name}"
              for name, value in values.items() if value is None}
    for name in manifest:
        if name not in values:
            sys.exit(f"perfbench: BENCHMARK.json names per-layer metric {name!r} "
                     f"that is not computed")
        if name in absent:
            sys.exit(f"perfbench: per-layer metric {name} is absent ({absent[name]}); "
                     f"the boundaries in spans.BOUNDARIES no longer match chainmix")
    for name in manifest + sorted(set(values) - set(manifest)):
        value, unit = values[name], tracing.UNITS[name]
        shown = f"absent: {absent[name]}" if value is None else f"{value:.6g} {unit}"
        print(f"{'' if name in manifest else '#'}{name:>40} {shown}")
    (OUT / f"layers-{ledger.workload.name}-{args.seed}.json").write_text(json.dumps(
        {"values": values, "units": tracing.UNITS, "absent": absent}, indent=1))
    counts = {name: value for name, value in values.items()
              if tracing.UNITS[name] in ("count", "bytes") and value is not None}
    return {name: metric(values[name], tracing.UNITS[name]) for name in manifest}, counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="overwrite the workload's default-seed reference values")
    args = parser.parse_args(argv)
    pin_malloc_threshold()

    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    import_chainmix()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        workloads.warm_up(OUT)
        return 0

    code = source_hash()
    print_header(args, code)
    kernels = []
    if not args.trace:
        samples = measure_setup(args, kernels)
        print(f"# setup samples (s): {' '.join(f'{s:.4f}' for s in samples)}")
    workloads.warm_up(OUT)

    ledger = Ledger(workload, args.seed)
    if args.trace:
        metrics, trace_counts = traced_run(args, ledger, spec)
    else:
        metrics, trace_counts = untraced_run(args, ledger, samples, kernels, spec), None
    ledger.check_reference()
    ledger.check_counts(code, trace_counts)
    if args.record_reference:
        ledger.record_reference()
    for problem in ledger.problems:
        print(f"# CHECK FAILED: {problem}")
    print(json.dumps({"correct": not ledger.problems, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
