"""The conformal-gsb benchmark: one workload, one closed loop, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads (see ``bench/README.md``
for why each was chosen and what each metric should move):

* ``lhv-equiv``      ``conformal example heisenberg-virasoro equiv --window 2``
* ``lhv-check``      ``conformal check -f presentations/heisenberg_virasoro.alg``
* ``word-products``  3000 seeded products ``mult(sig, u, n, v)`` with a
                     Leibniz and a vanishing check on each

A single parent process runs jobs one at a time, each in a fresh Python
process (a closed loop with one client), until the next job would end after
``--seconds``; at least one job runs.  Every job's exit code, verdict line
and output sha256 are compared with ``bench/golden.json``; a job that does
not match counts as failed and gives no timing.

``--trace 0`` prints the end-to-end metrics: per job, wall time from spawn
to exit, user plus system CPU time and peak RSS, each taken from
``os.wait4`` on that child, reported as medians over the run's jobs; the
set-up time, the median over several fresh processes that import the
package and load the input without solving; and the share of jobs that
matched.  ``--trace 1`` runs the same untraced loop, then one more job under
``bench/tracer.py``, and prints the per-layer metrics of that traced job
plus its overhead against the untraced median.

Times are in reference-speed seconds.  The jobs share one CPU with
``bench/calibrate.py``, a lowest-priority probe whose work rate follows the
speed of that CPU during each job; a raw time is multiplied by the probe's
rate over the job and divided by ``REF_UNITS_PER_S``.  The raw medians are
printed on standard error.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--small`` runs
the reduced-size variants that the benchmark's own tests use.
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass

import calibrate
import job
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = job.ROOT
SETUP_REPS = (5, 25)        # set-up processes per run: at least, at most
SETUP_MIN_S = 2.0           # ... and until they took this long in total
JOB_TIMEOUT_S = 150
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")
# Probe units per CPU second that times are scaled to: about the probe's
# median rate on the 2-core machine where the benchmark was defined.
REF_UNITS_PER_S = 60000.0


class SpeedProbe:
    """The ``calibrate.py`` process and a read-only view of its counters."""

    def __init__(self, work: str):
        size = calibrate.COUNTERS.size
        path = os.path.join(work, "speed")
        with open(path, "wb") as fh:
            fh.write(bytes(size))
        with open(path, "rb") as fh:
            self._mm = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ)
        self.pid = os.posix_spawn(
            sys.executable, [sys.executable, os.path.join(HERE, "calibrate.py"),
                             path, str(os.getpid())], CHILD_ENV)
        deadline = time.monotonic() + 60
        while self.read()[0] == 0:
            if time.monotonic() > deadline:
                self.close()
                raise SystemExit("run: the speed probe did not start")
            time.sleep(0.01)

    def read(self):
        """(units done, probe CPU ns), read twice to skip a torn write."""
        size = calibrate.COUNTERS.size
        while True:
            raw = self._mm[:size]
            if raw == self._mm[:size]:
                return calibrate.COUNTERS.unpack(raw)

    def close(self) -> None:
        _kill(self.pid)
        os.waitpid(self.pid, 0)
        self._mm.close()


@dataclass
class Child:
    """Resources of one finished child process, and the probe's progress
    while it ran."""

    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    probe_units: int = 0
    probe_ns: int = 0


def speed(children) -> float:
    """Probe rate over the children's lifetimes, relative to the reference."""
    units = sum(c.probe_units for c in children)
    ns = sum(c.probe_ns for c in children)
    if not units or not ns:
        raise SystemExit("run: the speed probe made no progress during a job")
    return units / (ns / 1e9) / REF_UNITS_PER_S


def job_speed(child: Child, run_children) -> float:
    """The probe rate during one job, or over the run if it got no slice."""
    return speed([child] if child.probe_units else run_children)


def spawn_and_wait(argv, probe: SpeedProbe) -> Child:
    """Run ``python3 argv`` with stdout discarded; measure that child alone.

    ``os.wait4`` gives the rusage of this one child; ``RUSAGE_CHILDREN``
    would report the maximum RSS over every child so far.
    """
    devnull = (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)
    units0, ns0 = probe.read()
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + argv, CHILD_ENV,
                         file_actions=[devnull])
    timer = threading.Timer(JOB_TIMEOUT_S, _kill, (pid,))
    timer.start()
    try:
        _, status, ru = os.wait4(pid, 0)
    except BaseException:
        _kill(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    units1, ns1 = probe.read()
    return Child(os.waitstatus_to_exitcode(status), wall,
                 ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                 units1 - units0, ns1 - ns0)


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def job_argv(args, out: str, extra=()) -> list:
    argv = [os.path.join(HERE, "job.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--out", out, *extra]
    return argv + (["--small"] if args.small else [])


def load_golden(args) -> dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        entry = json.load(fh)[args.workload]["small" if args.small else "full"]
    if "digests" in entry:
        # word-products: a digest per recorded seed; for any other seed the
        # Leibniz and vanishing checks (in the verdict) and agreement
        # between the run's jobs are what is checked
        entry = dict(entry, digest=entry["digests"].get(str(args.seed)))
    return entry


def job_ok(child: Child, out: str, golden: dict) -> bool:
    """Whether the job exited cleanly and matched the expected output."""
    if child.status != 0:
        return False
    try:
        with open(out, encoding="utf-8") as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        return False
    if golden.get("digest") is None:
        golden["digest"] = res["digest"]     # first job of an unrecorded seed
    return (res["exit_code"] == golden["exit_code"]
            and res["verdict"] == golden["verdict"]
            and res["digest"] == golden["digest"])


def measure_setup(args, work: str, probe: SpeedProbe) -> list:
    setups = []
    while len(setups) < SETUP_REPS[0] or (
            len(setups) < SETUP_REPS[1]
            and sum(c.wall_s for c in setups) < SETUP_MIN_S):
        child = spawn_and_wait(job_argv(args, os.path.join(work, "setup.json"),
                                        ["--setup-only"]), probe)
        if child.status != 0:
            raise SystemExit(f"run: set-up process exited with {child.status}")
        setups.append(child)
    return setups


def closed_loop(args, work: str, golden: dict, probe: SpeedProbe):
    """Jobs back to back until the next one would overrun ``--seconds``."""
    done, failed = [], 0
    start = time.perf_counter()
    while True:
        out = os.path.join(work, f"job{len(done) + failed}.json")
        child = spawn_and_wait(job_argv(args, out), probe)
        if job_ok(child, out, golden):
            done.append(child)
        else:
            failed += 1
        walls = [c.wall_s for c in done] or [child.wall_s]
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            return done, failed


def end_to_end(done, failed, setups) -> dict:
    # set-up processes are short, so one rate over all of them
    setup_speed = speed(setups)
    print(f"run: raw medians wall {statistics.median(c.wall_s for c in done):.3f} s, "
          f"cpu {statistics.median(c.cpu_s for c in done):.3f} s, set-up "
          f"{statistics.median(c.wall_s for c in setups):.3f} s; probe speed "
          f"{statistics.median(job_speed(c, done) for c in done):.3f} (jobs), "
          f"{setup_speed:.3f} (set-up)", file=sys.stderr)
    return {
        "wall_s": statistics.median(c.wall_s * job_speed(c, done) for c in done),
        "cpu_s": statistics.median(c.cpu_s * job_speed(c, done) for c in done),
        "peak_rss_mb": statistics.median(c.rss_mb for c in done),
        "setup_s": statistics.median(c.wall_s for c in setups) * setup_speed,
        "ok_ratio": len(done) / (len(done) + failed),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(trace_path: str, traced: Child, untraced) -> dict:
    header, name_ids, parents, starts, ends = tracer.load(trace_path)
    c = header["counts"].get
    scale = job_speed(traced, untraced)
    self_s = {k: v * scale for k, v in tracer.self_times(
        header["names"], name_ids, parents, starts, ends).items()}
    return {
        "algebra.gen_mult.calls": c("algebra._gen_mult.calls", 0),
        "algebra.word_mult.calls": c("algebra._word_mult.calls", 0),
        "algebra.word_D.calls": c("algebra._word_D.calls", 0),
        "algebra.gen_mult.miss_ratio": _ratio(c("algebra._gen_mult.misses", 0),
                                              c("algebra._gen_mult.calls", 0)),
        "algebra.cache_entries": c("algebra.cache_entries", 0),
        "algebra.self_s": sum(v for k, v in self_s.items()
                              if k.startswith("algebra.")),
        "words.word_key.calls": c("words.word_key.calls", 0),
        "words.wkey_cache_entries": c("words.wkey_cache_entries", 0),
        "rewriting.reduce_poly.calls": c("rewriting.reduce_poly.calls", 0),
        "rewriting.reduce_poly.steps": c("rewriting.reduce_poly.steps", 0),
        "rewriting.reduce_poly.self_s": self_s["rewriting.reduce_poly"],
        "rewriting.find_one.calls": c("rewriting.find_one.calls", 0),
        "rewriting.find_one.hit_ratio": _ratio(c("rewriting.find_one.hits", 0),
                                               c("rewriting.find_one.calls", 0)),
        "rewriting.has_reduction.calls": c("rewriting.has_reduction.calls", 0),
        "rewriting.has_reduction.hit_ratio": _ratio(
            c("rewriting.has_reduction.hits", 0),
            c("rewriting.has_reduction.calls", 0)),
        "rewriting.eval_pattern.calls": c("rewriting.eval_pattern.calls", 0),
        "rewriting.relationset.adds": c("rewriting.relationset.add.calls", 0),
        "rewriting.relationset.removes": c("rewriting.relationset.remove.calls", 0),
        "rewriting.materialized": c("rewriting.materialized", 0),
        "envelope.instances_for.calls": c("envelope.SchemaIndex.instances_for.calls", 0),
        "gsb.enumerate_compositions.calls": c("gsb.enumerate_compositions.calls", 0),
        "gsb.compositions": c("gsb.compositions", 0),
        "gsb.enumerate_compositions.self_s": self_s["gsb.enumerate_compositions"],
        "gsb.interreduce.calls": c("gsb.interreduce.calls", 0),
        "gsb.interreduce.self_s": self_s["gsb.interreduce"],
        "gsb.complete.rounds": c("gsb.complete.rounds", 0),
        "gsb.complete.added": c("gsb.complete.added", 0),
        "gsb.basis_size": c("gsb.basis_size", 0),
        "gsb.complete.useful_ratio": _ratio(c("gsb.complete.added", 0),
                                            c("gsb.complete.attempted", 0)),
        "envelope.instantiate_schemas.self_s": self_s["envelope.instantiate_schemas"],
        "envelope.instantiate_schemas.instances": c(
            "envelope.instantiate_schemas.instances", 0),
        "envelope.builtin_example.self_s": self_s["envelope.builtin_example"],
        "dsl.parse_presentation.self_s": self_s["dsl.parse_presentation"],
        "cli.self_s": self_s.get("cli.main", 0.0),
        "trace.overhead_ratio": traced.wall_s * scale / statistics.median(
            u.wall_s * job_speed(u, untraced) for u in untraced),
    }


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def run(args, work: str, probe: SpeedProbe) -> dict:
    golden = load_golden(args)
    setups = [] if args.trace else measure_setup(args, work, probe)
    done, failed = closed_loop(args, work, golden, probe)
    if not done:
        raise SystemExit(f"run: all {failed} jobs failed or mismatched")
    if args.trace:
        out = os.path.join(work, "traced.json")
        trace_path = os.path.join(work, "trace.bin")
        child = spawn_and_wait(job_argv(args, out, ["--trace", trace_path]), probe)
        if not job_ok(child, out, golden):
            raise SystemExit("run: the traced job failed or mismatched")
        values = per_layer(trace_path, child, done)
        done.append(child)
    else:
        values = end_to_end(done, failed, setups)
    units = declared_metrics(args.trace)
    if set(values) != set(units):
        raise SystemExit(f"run: metrics {sorted(set(values) ^ set(units))} "
                         f"are not both measured and declared")
    return {"correct": failed == 0, "attempted": len(done) + failed,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]}
                        for k in units}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=job.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced-size inputs, for the benchmark's tests")
    args = ap.parse_args(argv)
    # a terminated run stops its running job too (see spawn_and_wait)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for need in (os.path.join("src", "conformal", "__init__.py"), job.LHV_FILE):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"run: {need} is missing; run from the root of a conformal-gsb "
                  f"checkout", file=sys.stderr)
            return 2
    # the jobs and the speed probe inherit this one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = os.path.join(ROOT, ".bench_out", str(os.getpid()))
    os.makedirs(work)
    probe = None
    try:
        probe = SpeedProbe(work)
        result = run(args, work, probe)
    finally:
        if probe is not None:
            probe.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
