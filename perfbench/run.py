"""Benchmark for toruscm: seeded closed-loop workloads, one process each.

Run from the root of a checkout:

    python3 perfbench/run.py --workload section4 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times jobs untraced and prints the end-to-end metrics;
with ``--trace 1`` it runs a fixed list of jobs alternately untraced and
under the outside-in tracer and prints per-job layer metrics.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.
The workloads are described in ``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import types
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # every run compiles the library the same way

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "toruscm"
MODULES = (
    "boxes", "polyq", "numfield", "exactla", "torus", "cm", "mirror",
    "valattice", "jsonio", "cli", "fixtures",
)
SETUP_REPEATS = 5
# Times are reported in reference seconds: wall time scaled by how fast this
# machine ran a fixed kernel of Fraction arithmetic (what the library spends
# its time on) within CALIBRATION_WINDOW_S of the measured interval.  The
# machine is shared, and its speed drifts by 20-30 % over tens of seconds;
# the kernel drifts with it.  K_REF is the
# kernel's time on the 2-vCPU Xeon (2.0 GHz, Python 3.11.7) on which the
# benchmark was defined.
K_REF = 0.0035
CALIBRATE_EVERY_S = 0.25
CALIBRATION_WINDOW_S = 1.0
TRACE_JOBS = {"section4": 2, "mirror_suite": 12, "cm_pipeline": 8, "va_chiral_cli": 12}

# Layer metrics built from groups of traced functions: ``.calls`` counts the
# group's outermost calls and ``.s`` their inclusive time, per job.
GROUPS = {
    "boxes.mul": ["boxes.Box.__mul__"],
    "polyq.isolate_real_roots": ["polyq.isolate_real_roots"],
    "numfield.mul": ["numfield.FieldElement.__mul__"],
    "numfield.inverse": ["numfield.FieldElement.inverse"],
    "numfield.refine": ["numfield.Embedding.refine"],
    "numfield.exact_sign": ["numfield.exact_sign", "numfield.exact_sign_imag"],
    "numfield.minpoly_factor_at": ["numfield.minpoly_factor_at"],
    "exactla.matmul": ["exactla.FieldMatrix.__mul__"],
    "exactla.elim": [
        "exactla.FieldMatrix.rank", "exactla.FieldMatrix.kernel",
        "exactla.FieldMatrix.solve", "exactla.FieldMatrix.inverse",
        "exactla.FieldMatrix.det",
    ],
    "exactla.hnf": ["exactla.hnf", "exactla.int_hnf_with_transform"],
    "exactla.snf": ["exactla.snf"],
    "exactla.saturate": ["exactla.saturate_integer_solutions"],
    "exactla.positive_definite": ["exactla.positive_definite"],
    "torus.induce_gks": ["torus.induce_gks"],
    "torus.verify": ["torus.GksPair.verify"],
    "cm.cm_torus": ["cm.cm_torus"],
    "cm.find_beta": ["cm.find_beta"],
    "cm.cm_certificate": ["cm.cm_certificate"],
    "cm.matrix_minpoly": ["cm.matrix_minpoly"],
    "cm.krylov_minpoly": ["cm.krylov_minpoly"],
    "cm.endomorphism_algebra": ["cm.endomorphism_algebra"],
    "cm.kahler_search": ["cm.rational_kahler_search"],
    "mirror.construct": ["mirror.construct_mirror"],
    "mirror.verify": ["mirror.verify_mirror"],
    "mirror.isogeny": ["mirror.isogeny_from_mirror", "mirror.verify_isogeny_certificate"],
    "valattice.build_pairing_lattice": ["valattice.build_pairing_lattice"],
    "valattice.chiral_sublattice": ["valattice.chiral_sublattice"],
    "jsonio.decode": [
        "jsonio.decode_rational", "jsonio.decode_field", "jsonio.decode_element",
        "jsonio.decode_matrix", "jsonio.decode_torus", "jsonio.decode_cm_input",
        "jsonio.decode_pair",
    ],
    "jsonio.encode": [
        "jsonio.encode_rational", "jsonio.encode_field", "jsonio.encode_element",
        "jsonio.encode_matrix", "jsonio.encode_int_matrix", "jsonio.encode_torus",
        "jsonio.encode_cm_input", "jsonio.encode_pair",
    ],
    "cli.run": ["cli.run"],
}
SCOPED = {"cm.kahler_search.pd_trials": ("cm.kahler_search", "exactla.positive_definite")}
GROUP_CALLS = (
    "boxes.mul", "polyq.isolate_real_roots", "numfield.mul", "numfield.inverse",
    "numfield.refine", "numfield.exact_sign", "numfield.minpoly_factor_at",
    "exactla.matmul", "exactla.elim", "exactla.hnf", "exactla.snf",
    "exactla.positive_definite", "torus.induce_gks", "cm.cm_certificate",
    "cm.matrix_minpoly", "cm.krylov_minpoly", "mirror.verify", "cli.run",
)
GROUP_SECONDS = (
    "exactla.matmul", "exactla.elim", "exactla.saturate", "torus.induce_gks",
    "torus.verify", "cm.cm_torus", "cm.find_beta", "cm.endomorphism_algebra",
    "mirror.construct", "mirror.isogeny", "valattice.build_pairing_lattice",
    "valattice.chiral_sublattice", "jsonio.decode", "jsonio.encode",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import every toruscm module afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    pkg = sys.modules[PACKAGE]
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / PACKAGE:
        raise ImportError(f"{PACKAGE} imported from {pkg.__file__}, not from {src}")
    return types.SimpleNamespace(**mods)


def environment(precision):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "TORUSCM_PRECISION": precision,
    }


def _kernel():
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    return acc


class Clock:
    """Wall-clock intervals scaled to the reference machine speed."""

    def __init__(self):
        self.samples = []  # (start, seconds per kernel call)

    def calibrate(self):
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        _kernel()
        _kernel()
        self.samples.append((t0, (perf_counter() - t0) / 2))
        if enabled:
            gc.enable()

    def tick(self):
        """Calibrate when the last sample is older than CALIBRATE_EVERY_S."""
        if not self.samples or perf_counter() - self.samples[-1][0] >= CALIBRATE_EVERY_S:
            self.calibrate()

    def scale(self, start, seconds):
        """``seconds`` measured from ``start``, in reference seconds."""
        lo, hi = start - CALIBRATION_WINDOW_S, start + seconds + CALIBRATION_WINDOW_S
        near = [k for t, k in self.samples if lo <= t <= hi] or [k for _, k in self.samples]
        return seconds * K_REF * len(near) / sum(near)

    def factor(self):
        """Run-wide scale: reference seconds per wall second."""
        return K_REF * len(self.samples) / sum(k for _, k in self.samples)


def run_job(w, i):
    inp = w.inputs[i % len(w.inputs)]
    try:
        return inp, w.job(inp), None
    except Exception as exc:  # a failed job is counted, not fatal
        return inp, None, f"{type(exc).__name__}: {exc}"


def check_all(w, results):
    """Number of failed jobs, printing the first few reasons."""
    failed = 0
    for inp, out, err in results:
        if err is None:
            try:
                err = w.check(inp, out)
            except Exception as exc:  # a malformed output fails its job
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failed += 1
            if failed <= 5:
                print(f"# job failed: {err}")
    return failed


def tail(times):
    """The highest percentile with at least ten jobs beyond it."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def timed(w, seconds, clock):
    """Closed loop: whole job-mix cycles until ``seconds`` have passed.
    Returns the jobs' reference times, their results and the wall time."""
    spans, results = [], []
    gc.collect()
    start = perf_counter()
    i = 0
    while i % w.cycle or perf_counter() - start < seconds:
        clock.tick()
        t0 = perf_counter()
        results.append(run_job(w, i))
        spans.append((t0, perf_counter() - t0))
        i += 1
    elapsed = perf_counter() - start
    clock.calibrate()
    return [clock.scale(t0, d) for t0, d in spans], results, elapsed


def untraced_run(name, w, seconds, setup_s, clock):
    leaks = tracer.installed_wrappers(PACKAGE)
    times, results, elapsed = timed(w, seconds, clock)
    leaks += tracer.installed_wrappers(PACKAGE)
    hooked = bool(leaks or sys.getprofile() or sys.gettrace())
    if hooked:
        print(f"# tracing was active during the untraced run: {leaks[:5]}")
    failed = check_all(w, results)
    n = len(times)
    tail_s, tail_pct = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": ((n - failed) / sum(times), "1/s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (tail_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "pass_ratio": ((n - failed) / n, "ratio"),
    }
    print(f"# {name}: {n} jobs in {elapsed:.2f} s wall, fail_ratio {failed / n:.4f} ({failed}/{n})")
    print(f"# times in reference seconds: wall x {clock.factor():.4f} on average "
          f"({len(clock.samples)} kernel samples)")
    print(f"# job_s.tail is p{tail_pct:.1f} of {n} jobs")
    for key, (value, unit) in metrics.items():
        print(f"# {key:<14} {value:.6g} {unit}")
    correct = failed == 0 and not hooked
    return correct, n, failed, metrics


def run_pass(w, jobs, clock, after_first=None):
    """Jobs 0..jobs-1 once; returns their results and reference seconds."""
    results, ref_s = [], 0.0
    for i in range(jobs):
        clock.tick()
        t0 = perf_counter()
        results.append(run_job(w, i))
        ref_s += clock.scale(t0, perf_counter() - t0)
        if i == 0 and after_first is not None:
            after_first()
    return results, ref_s


def traced_run(name, w, seconds, clock):
    """Alternate untraced and traced passes over the same job list until
    ``seconds`` have passed; counts must repeat exactly in every pass."""
    jobs = TRACE_JOBS[name]
    t = tracer.Tracer(PACKAGE, GROUPS, SCOPED)
    problems = [f"no traced function {k}" for k in t.missing]
    results, untraced_s, traced_s, job0 = [], [], [], []
    first = total = None
    start = perf_counter()
    while not traced_s or perf_counter() - start < seconds:
        problems += [f"wrapper bound at {x}" for x in tracer.installed_wrappers(PACKAGE)]
        got, ref_s = run_pass(w, jobs, clock)
        results += got
        untraced_s.append(ref_s)
        t.install()
        before = t.snapshot()
        got, ref_s = run_pass(
            w, jobs, clock, lambda: job0.append(t.delta(t.snapshot(), before))
        )
        d = t.delta(t.snapshot(), before)
        problems += [f"{x} not restored" for x in t.uninstall()]
        results += got
        traced_s.append(ref_s)
        if first is None:
            first, total = d, d
            continue
        if t.counts(d) != t.counts(first):
            problems.append("per-job counts differ between passes")
        total = {
            part: {
                k: tuple(a + b for a, b in zip(v, d[part][k])) if isinstance(v, tuple)
                else v + d[part][k]
                for k, v in total[part].items()
            }
            for part in total
        }
    # job 0 once more, untraced, under cProfile
    profiled_result = []
    profiled = t.profile_calls(lambda: profiled_result.append(run_job(w, 0)))
    results += profiled_result
    mismatch = sorted(k for k, v in profiled.items() if v != job0[0]["calls"][k][0])
    if mismatch:
        problems.append(f"traced calls differ from cProfile ncalls for {mismatch[:5]}")
    clock.calibrate()
    failed = check_all(w, results)
    for p in problems[:10]:
        print(f"# trace problem: {p}")

    passes = len(traced_s)
    per_job = clock.factor() / (passes * jobs)  # reference seconds per job
    notes = {}
    for _, out, _ in results[jobs: 2 * jobs]:  # the first traced pass
        for k, v in ((out or {}).get("notes") or {}).items():
            notes[k] = notes.get(k, 0) + v
    metrics = {}
    for g in GROUP_CALLS:
        metrics[f"{g}.calls"] = (first["groups"][g][0] / jobs, "count")
    for g in GROUP_SECONDS:
        metrics[f"{g}.s"] = (total["groups"][g][1] * per_job, "s")
    pd_trials = first["scoped"]["cm.kahler_search.pd_trials"]
    metrics["cm.kahler_search.pd_trials"] = (pd_trials / jobs, "count")
    found = notes.get("cm.kahler_search.found", 0)
    metrics["cm.kahler_search.hit_ratio"] = (found / pd_trials if pd_trials else 0.0, "ratio")
    metrics["cli.exit_nonzero"] = (notes.get("cli.exit_nonzero", 0) / jobs, "count")
    for m in MODULES:
        metrics[f"{m}.self_s"] = (total["self_s"].get(m, 0.0) * per_job, "s")
        raised = sum(v[1] for k, v in first["calls"].items() if t.module_of[k] == m)
        metrics[f"{m}.raised"] = (raised / jobs, "count")
    untraced_rate = passes * jobs / sum(untraced_s)
    traced_rate = passes * jobs / sum(traced_s)
    metrics["trace.untraced_jobs_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_jobs_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    print(f"# {name}: {passes} passes of {jobs} jobs; cProfile agrees on "
          f"{len(profiled) - len(mismatch)}/{len(profiled)} traced functions")
    for key, (value, unit) in metrics.items():
        print(f"# {key:<36} {value:.6g} {unit}")
    return not problems and failed == 0, len(results), failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    precision = os.environ.pop("TORUSCM_PRECISION", None)
    if precision is not None:
        print(f"# FLAG: TORUSCM_PRECISION={precision} was set; this run unset it")
    clock = Clock()
    setups = []
    for _ in range(SETUP_REPEATS):
        clock.calibrate()
        t0 = perf_counter()
        try:
            lib = import_library()
        except ImportError as exc:
            print(f"cannot import {PACKAGE} from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        w = workloads.WORKLOADS[args.workload](args.seed, str(ROOT), lib)
        setups.append((t0, perf_counter() - t0))
        clock.calibrate()
    print("# env " + json.dumps(environment(precision), sort_keys=True))
    if args.trace:
        correct, attempted, failed, metrics = traced_run(args.workload, w, args.seconds, clock)
    else:
        setup_s = statistics.median(clock.scale(t0, d) for t0, d in setups)
        correct, attempted, failed, metrics = untraced_run(
            args.workload, w, args.seconds, setup_s, clock
        )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
