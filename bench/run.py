"""Benchmark of the nesthilb command line: three workloads, each CLI call in a
fresh interpreter, with every output checked against an independent reference.

    python3 bench/run.py --workload series-nested --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1

--trace 0 reports the end-to-end metrics (medians over the invocations made in
--seconds); --trace 1 reports the per-layer metrics of bench/layers.py from
traced invocations at --jobs 1, beside untraced ones for the overhead and the
pool twin.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import COUNT_METRICS, EMPTY_TRACE, layer_metrics, unit_of  # noqa: E402
from reference import closed_form  # noqa: E402

DEFAULT_SECONDS = 35  # run_seconds of BENCHMARK.json
MIN_SAMPLES = 3  # invocations per run however short --seconds is
INVOCATION_TIMEOUT = 120
RUN_DEADLINE = 170  # seconds after start; no invocation runs past it
CONFIG = "configs/hirzebruch1.yaml"
REQUIRED = ("src/nesthilb/cli.py", CONFIG, "schemas/series_output.schema.json",
            "schemas/integrate_output.schema.json")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # nesthilb arguments, without --seed
    check: Callable[[str], str | None]  # stdout -> error message, None if correct
    twin: tuple | None = None  # --jobs 1 variant, timed beside argv in the traced pass
    procs: int = 1  # processes the workload keeps busy, for the reference timing


# ---------------------------------------------------------------------------
# output checks


def _schema_error(payload, schema_file):
    import jsonschema

    schema = json.loads((ROOT / "schemas" / schema_file).read_text())
    error = next(jsonschema.Draft202012Validator(schema).iter_errors(payload), None)
    return None if error is None else f"schema: {error.message}"


def _rational(value):
    return int(value["num"]) if value["den"] == "1" else None


def series_check(expected):
    """Every row equals the reference coefficient; the row set is the full grid."""

    def check(stdout):
        payload = json.loads(stdout)
        error = _schema_error(payload, "series_output.schema.json")
        if error:
            return error
        rows = {(r["n1"], r["n2"]): r for r in payload["rows"]}
        if len(rows) != len(payload["rows"]) or set(rows) != set(expected):
            return f"rows {sorted(rows)} are not the grid {sorted(expected)}"
        for key, want in expected.items():
            row = rows[key]
            closed = row.get("closed_form")
            got = (_rational(row["value"]), closed and _rational(closed))
            if got != (want, want) or row.get("match") is not True:
                return f"row {key}: value and closed form {got}, reference {want}"
        return None

    return check


def integrate_check(expected, n1, n2):
    """One product-route record at (n1, n2) whose value is the reference."""

    def check(stdout):
        payload = json.loads(stdout)
        error = _schema_error(payload, "integrate_output.schema.json")
        if error:
            return error
        records = payload["records"]
        if len(records) != 1 or not payload["agreement"]:
            return f"expected one agreeing record, got {len(records)}"
        rec = records[0]
        if (rec["route"], rec["n1"], rec["n2"]) != ("product", n1, n2):
            return f"record is {rec['route']} at ({rec['n1']}, {rec['n2']})"
        if _rational(rec["value"]) != expected or len(rec["specializations"]) != 2:
            return f"value {rec['value']}, reference {expected}"
        return None

    return check


def fock_check(stdout):
    """Exit 0 is checked by the caller; every check line reads PASS."""
    lines = stdout.splitlines()
    if len(lines) < 2 or lines[-1] != "fock: pass":
        return f"summary line {lines[-1:]}"
    bad = [line for line in lines[:-1] if not line.startswith("PASS ")]
    return f"not passed: {bad}" if bad else None


def workloads(tiny=False):
    """The benchmark's workloads; tiny=True shrinks them for the self-test."""
    import yaml

    config = yaml.safe_load((ROOT / CONFIG).read_text())
    cap = 2 if tiny else 6
    n1, n2 = (2, 1) if tiny else (5, 2)
    fock_cap = 2 if tiny else 4
    p1xp1 = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    integrate = ("integrate", "--surface", "p1xp1", "--bundle", "O(1,1)",
                 "--n1", str(n1), "--n2", str(n2), "--route", "product")
    return {w.name: w for w in (
        Workload(
            "series-nested",
            ("series", "--surface", CONFIG, "--bundle", "fiber", "--cap", str(cap),
             "--compare", "closed-form"),
            series_check(closed_form(config["rays"], config["bundles"]["fiber"], cap)),
        ),
        Workload(
            "integrate-product",
            integrate + ("--jobs", "2"),
            integrate_check(closed_form(p1xp1, [1, 1, 0, 0], n1 + n2)[(n1, n2)], n1, n2),
            twin=integrate + ("--jobs", "1"),
            procs=2,
        ),
        Workload("verify-fock", ("verify", "fock", "--cap", str(fock_cap)), fock_check),
    )}


# ---------------------------------------------------------------------------
# one CLI invocation


@dataclasses.dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    stdout: str
    report: dict | None
    error: str | None
    ref_s: float | None = None  # reference computation time beside this invocation


def _drain(stream, into):
    thread = threading.Thread(target=lambda: into.append(stream.read()))
    thread.start()
    return thread


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(argv, seed, trace=False, timeout=INVOCATION_TIMEOUT):
    """Run probe.py on argv in a fresh interpreter; time it with its workers."""
    read_fd, write_fd = os.pipe()
    env = {k: v for k, v in os.environ.items() if k != "NESTHILB_SEED"}
    env.update(PYTHONPATH=str(ROOT / "src"), BENCH_REPORT_FD=str(write_fd))
    cmd = [sys.executable, str(HERE / "probe.py"), *(["--trace"] if trace else []),
           *argv, "--seed", str(seed)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            pass_fds=(write_fd,), start_new_session=True)
    os.close(write_fd)
    outs = [[], [], []]
    with os.fdopen(read_fd, "rb") as channel:
        readers = [_drain(s, o) for s, o in zip((proc.stdout, proc.stderr, channel), outs)]
        killer = threading.Timer(timeout, _kill_group, (proc.pid,))
        killer.start()
        # wait4 gives the invocation's usage including the workers it waited for
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
        except BaseException:  # interrupted: stop the invocation before leaving
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        for reader in readers:
            reader.join()
    proc.stdout.close()
    proc.stderr.close()
    stdout, stderr, raw = (o[0].decode(errors="replace") for o in outs)
    report, error = None, None
    try:
        report = json.loads(raw)
    except json.JSONDecodeError:
        error = "no report from probe"
    if proc.returncode:
        error = f"exit {proc.returncode}: {(stderr.strip() or stdout.strip())[-300:]}"
    setup = report["setup_end"] - t0 if report and report["setup_end"] else None
    # wait4's ru_maxrss also counts this process, which the kernel charges to
    # the child at exec; the probe reports its own and its workers' peak
    rss = report["peak_rss_mb"] if report else usage.ru_maxrss / 1024
    return Sample(wall, usage.ru_utime + usage.ru_stime, rss, setup, stdout, report, error)


# ---------------------------------------------------------------------------
# runs


class Run:
    """The invocations of one benchmark run, checked as they complete."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.samples = {}  # kind -> [Sample]
        self.first_stdout = None

    def remaining(self):
        return RUN_DEADLINE - (time.monotonic() - self.start)

    def call(self, kind, argv, trace=False):
        timeout = min(INVOCATION_TIMEOUT, self.remaining())
        sample = invoke(argv, self.seed, trace, timeout)
        if sample.error is None:
            try:
                sample.error = self.workload.check(sample.stdout)
            except (ValueError, KeyError, TypeError) as exc:
                sample.error = f"unreadable output: {exc!r}"
        if sample.error is None:
            if self.first_stdout is None:
                self.first_stdout = sample.stdout
            elif sample.stdout != self.first_stdout:
                sample.error = "stdout differs from the first invocation with this seed"
        self.samples.setdefault(kind, []).append(sample)
        return sample

    @property
    def attempted(self):
        return sum(len(s) for s in self.samples.values())

    @property
    def failures(self):
        return [f"{kind}: {s.error}" for kind, samples in self.samples.items()
                for s in samples if s.error is not None]

    def keep_going(self, seconds, rounds, min_rounds):
        elapsed = time.monotonic() - self.start
        return self.remaining() > 0 and (rounds < min_rounds or elapsed < seconds)


# Fixed work in the style of nesthilb's kernels (truncated products of
# Fraction coefficients, about 0.2 to 0.35 s) that prints its own duration.
# It belongs to the benchmark, so no change to the program moves it.
REFERENCE_CODE = """
import time
from fractions import Fraction
a = [Fraction(k + 1, 2 * k + 3) for k in range(12)]
b = [Fraction(2 * k + 1, k + 5) for k in range(12)]
t0 = time.perf_counter()
for _ in range(800):
    out = [Fraction(0)] * 12
    for i, x in enumerate(a):
        for j in range(12 - i):
            out[i + j] += x * b[j]
print(time.perf_counter() - t0)
"""


def reference_seconds(procs):
    """How fast the machine runs right now for a workload that keeps `procs`
    processes busy: the mean time of the reference work, run at once in
    that many fresh interpreters, since two busy processes can each run
    slower than one alone."""
    running = [subprocess.Popen([sys.executable, "-I", "-c", REFERENCE_CODE],
                                stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
               for _ in range(procs)]
    times = [float(p.communicate()[0]) for p in running]
    return sum(times) / len(times)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(run, seconds):
    """Invocations, each between two timings of the reference computation.

    On the shared 2-core VM the benchmark was sized on, the machine's speed
    drifted by up to 2x within minutes; wall and CPU seconds of the CLI follow
    it, their ratio to the reference time measured beside each invocation
    far less.
    """
    w = run.workload
    rounds = 0
    # the cores run at different speeds, so the invocations and the
    # reference work share the same ones
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(cpus)[:w.procs])
    try:
        ref_before = reference_seconds(w.procs)
        while run.keep_going(seconds, rounds, MIN_SAMPLES):
            sample = run.call("run", w.argv)
            ref_after = reference_seconds(w.procs)
            sample.ref_s = (ref_before + ref_after) / 2
            ref_before = ref_after
            rounds += 1
    finally:
        os.sched_setaffinity(0, cpus)
    samples = run.samples["run"]
    return {
        "wall_ref": (_median(s.wall_s / s.ref_s for s in samples), "ref"),
        "cpu_ref": (_median(s.cpu_s / s.ref_s for s in samples), "ref"),
        "setup_s": (_median(s.setup_s for s in samples), "s"),
        "peak_rss_mb": (_median(s.peak_rss_mb for s in samples), "MB"),
    }


def per_layer(run, seconds):
    """Traced invocations at --jobs 1, each beside its untraced counterparts."""
    w = run.workload
    rounds = 0
    while run.keep_going(seconds, rounds, 1):
        run.call("untraced", w.argv)
        if w.twin:
            run.call("twin", w.twin)
        run.call("traced", w.twin or w.argv, trace=True)
        rounds += 1
    reports = []
    for sample in run.samples["traced"]:
        if sample.error is not None:
            continue
        metrics = layer_metrics(sample.report["trace"])
        moved = [k for k in COUNT_METRICS if reports and metrics[k] != reports[0][k]]
        if moved:
            sample.error = f"counts differ from the first traced invocation: {moved}"
        else:
            reports.append(metrics)
    if not reports:
        reports = [layer_metrics(EMPTY_TRACE)]
    # counts agree between the kept reports; times are medians
    metrics = {name: (reports[0][name] if name in COUNT_METRICS else _median(r[name] for r in reports),
                      unit_of(name))
               for name in reports[0]}

    def wall(kind):
        return _median(s.wall_s for s in run.samples.get(kind, []))

    def cpu(kind):
        return _median(s.cpu_s for s in run.samples.get(kind, []))

    base = "twin" if w.twin else "untraced"
    speedup = wall("twin") / wall("untraced") if w.twin else 0.0
    cpu_ratio = cpu("untraced") / cpu("twin") if w.twin else 0.0
    metrics["engine.pool.speedup"] = (speedup, unit_of("engine.pool.speedup"))
    metrics["engine.pool.cpu_ratio"] = (cpu_ratio, unit_of("engine.pool.cpu_ratio"))
    metrics["trace.overhead"] = (wall("traced") / wall(base), unit_of("trace.overhead"))
    return metrics


# ---------------------------------------------------------------------------
# environment


def _steal_ticks():
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nesthilb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": _git_revision(),
        "source_sha256": digest.hexdigest(),
        "cpu_model": _cpu_model(),
        "steal_ticks_before": _steal_ticks(),
    }


def _warm_up():
    """Compile and cache the package once, so the first timed call is not special."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import nesthilb.cli"], cwd=ROOT, env=env,
                   capture_output=True, timeout=60)


def measure(workload, seed, seconds, trace):
    """One run of one workload: (metrics {name: (value, unit)}, Run)."""
    run = Run(workload, seed)
    metrics = per_layer(run, seconds) if trace else end_to_end(run, seconds)
    return metrics, run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "series-nested", "integrate-product", "verify-fock"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a nesthilb checkout, missing {missing}", file=sys.stderr)
        return 2
    try:
        import jsonschema  # noqa: F401
        import yaml  # noqa: F401
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    env = environment()
    _warm_up()
    table = workloads()
    names = list(table) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, run = measure(table[name], args.seed, args.seconds, args.trace)
        failed = len(run.failures)
        result["attempted"] += run.attempted
        result["failed"] += failed
        result["correct"] = result["correct"] and not failed
        print(f"{name}: seed {args.seed}, trace {args.trace}, {run.attempted} invocations, "
              f"{failed} failed")
        for failure in run.failures:
            print(f"  FAIL {failure}")
        n = len(run.samples.get("run" if not args.trace else "traced", []))
        for metric, (value, unit) in metrics.items():
            print(f"  {metric} {value:.6g} {unit} (median of {n})")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            result["metrics"][key] = {"value": value, "unit": unit}
        if not args.trace:
            samples = run.samples["run"]
            for metric, unit, values in (("wall_s", "s", [s.wall_s for s in samples]),
                                         ("cpu_s", "s", [s.cpu_s for s in samples]),
                                         ("ref_s", "s", [s.ref_s for s in samples])):
                print(f"  {metric} {_median(values):.6g} {unit} (median of {n})")
            print(f"  fail_ratio {failed / run.attempted:.6g} ratio ({failed}/{run.attempted})")
    print("env " + json.dumps({"steal_ticks_after": _steal_ticks()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
