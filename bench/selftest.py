"""Self-test of the benchmark harness at tiny sizes; runs in seconds.

    python3 bench/selftest.py

Exits 0 when every check passes, 1 otherwise.
"""

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import COUNT_METRICS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
TINY = run.workloads(tiny=True)


def _clean(metrics, run_, names, label):
    problems = [f"{label}: {f}" for f in run_.failures]
    if set(metrics) != names:
        problems.append(f"{label}: metrics {sorted(set(metrics) ^ names)} differ from BENCHMARK.json")
    return problems


def every_metric_is_emitted():
    problems = []
    for name, workload in TINY.items():
        metrics, run_ = run.measure(workload, 0, 0, trace=False)
        problems += _clean(metrics, run_, END_TO_END, name)
        problems += [f"{name}: {k} is {v}" for k, (v, _) in metrics.items() if not v > 0]
        metrics, run_ = run.measure(workload, 0, 0, trace=True)
        # the run fails any traced stdout that differs from the untraced one
        problems += _clean(metrics, run_, PER_LAYER, f"{name} traced")
    return problems


def traced_counts_repeat():
    workload = TINY["series-nested"]
    first, second = (run.measure(workload, 3, 0, trace=True)[0] for _ in range(2))
    moved = [k for k in COUNT_METRICS if first[k] != second[k]]
    if first["engine.fixed_points.nested"][0] == 0:
        moved.append("no nested fixed points counted")
    return [f"counts moved between traced runs: {moved}"] if moved else []


def wrong_reference_fails():
    problems = []
    wrong = {
        "series-nested": run.series_check({(0, 0): 1, (1, 0): 11, (1, 1): 6,
                                           (2, 0): 45, (2, 1): 70, (2, 2): 27}),
        "integrate-product": run.integrate_check(-1, 2, 1),
    }
    for name, check in wrong.items():
        workload = dataclasses.replace(TINY[name], check=check)
        _, run_ = run.measure(workload, 0, 0, trace=False)
        if len(run_.failures) != run_.attempted:
            problems.append(f"{name}: {len(run_.failures)} of {run_.attempted} failed")
    return problems


def values_agree_across_seeds():
    workload = TINY["integrate-product"]
    outputs = [json.loads(run.invoke(workload.argv, seed).stdout) for seed in (0, 1)]
    records = [out["records"][0] for out in outputs]
    if records[0]["value"] != records[1]["value"]:
        return [f"values differ across seeds: {[r['value'] for r in records]}"]
    if records[0]["specializations"] == records[1]["specializations"]:
        return ["seeds 0 and 1 drew the same specializations"]
    return []


def refuses_outside_a_checkout():
    root, run.ROOT = run.ROOT, HERE
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "verify-fock", "--seconds", "0"])
    finally:
        run.ROOT = root
    return [] if code != 0 and not out.getvalue() else [f"exit {code}, stdout {out.getvalue()!r}"]


def main():
    failed = 0
    for test in (every_metric_is_emitted, traced_counts_repeat, wrong_reference_fails,
                 values_agree_across_seeds, refuses_outside_a_checkout):
        problems = test()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {test.__name__}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
