"""Benchmark of lshlab: seeded workloads, end-to-end metrics, a traced run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

Workloads (see workloads.py): bestc-gauss2d, approx-gauss2d, campaign-1d.

--trace 0 runs passes one after another, each in a fresh interpreter (as
``lshlab run`` starts one), until S seconds have gone by, and at least
MIN_PASSES of them.  It reports the medians over passes of

  wall_s       seconds for the workload's timed operations
  setup_s      seconds from ``import lshlab`` until measures, fields and
               config are built (set-up is repeated in extra processes
               until there are MIN_SETUPS samples)
  peak_rss_mb  peak resident memory of the pass process

and prints fail_rate: failed / attempted operations, the known-defect
operations (which run after the timed region) included, naming each one
that failed.

--trace 1 runs a traced pass between two untraced ones (plus, for
campaign-1d, one untraced pass at jobs=1) and reports the per-layer metrics listed in
tracer.LAYER_METRICS.  Spans go to benchmarks/_work/traces/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  ``attempted`` and ``failed`` count the timed
operations, each checked against its closed-form expectation; ``correct`` is
true when none failed.  The exit status is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
MIN_SETUPS = 5
PASS_TIMEOUT = 150.0
#: no new pass starts once this much of a run has gone by
DEADLINE = 120.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: One BLAS thread per pass.  On a 2-core box a second BLAS thread doubles the
#: CPU a pass uses without shortening it, and makes pass times noisier; the
#: thread pool of campaign-1d is then the only parallelism.
PASS_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class PassFailed(RuntimeError):
    pass


def spawn(workload, seed, workdir, mode="pass", jobs=None) -> dict:
    cmd = [sys.executable, str(HERE / "bench_pass.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), "--mode", mode]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=PASS_ENV, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{workload} {mode} pass exceeded {PASS_TIMEOUT:g} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise PassFailed(f"{workload} {mode} pass exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize_ops(passes):
    timed = [op for p in passes for op in p["ops"]]
    defect = [op for p in passes for op in p["defect_ops"]]
    failed = [op for op in timed + defect if not op["ok"]]
    total = len(timed) + len(defect)
    lines = [f"{'fail_rate':12s} {len(failed) / total:.4f} ratio ({len(failed)} of {total} "
             f"operations failed; {len(defect)} of the {total} are known-defect "
             "operations, run after the timed region)"]
    by_name = Counter(op["name"] for op in failed)
    details = {op["name"]: op for op in failed}
    for name, n in sorted(by_name.items()):
        op = details[name]
        tag = f" [known defect: {op['defect']}]" if op["defect"] else ""
        detail = op["detail"].strip().splitlines()[-1] if op["detail"].strip() else ""
        lines.append(f"  FAILED x{n} {name}{tag}: {detail}")
    return timed, failed, lines


def run_untraced(workload, seed, seconds, workdir):
    passes = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed >= seconds:
            break
        if passes and elapsed + passes[-1]["wall_s"] + passes[-1]["setup_s"] > DEADLINE:
            break
        passes.append(spawn(workload, seed, workdir / f"pass{len(passes)}"))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, workdir / f"setup{len(setups)}", "setup")["setup_s"])

    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": setups,
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    print(f"{workload} seed={seed}: {len(passes)} passes, {len(setups)} set-ups")
    metrics = {}
    for name, unit in END_TO_END:
        vals = samples[name]
        med = statistics.median(vals)
        q1, q3 = quartiles(vals)
        metrics[name] = {"value": med, "unit": unit}
        print(f"{name:12s} {med:.4f} {unit:3s} (median; q1 {q1:.4f}, q3 {q3:.4f}, n={len(vals)})")
    timed, _, lines = summarize_ops(passes)
    print("\n".join(lines))
    return timed, metrics


def run_traced(workload, seed, workdir):
    wl = WORKLOADS[workload]
    # untraced passes on both sides of the traced one, so that a drift in machine
    # speed during the run does not read as tracing overhead
    before = spawn(workload, seed, workdir / "untraced0")
    traced = spawn(workload, seed, workdir / "traced", "traced")
    after = spawn(workload, seed, workdir / "untraced1")
    passes = [before, traced, after]
    untraced_s = (before["wall_s"] + after["wall_s"]) / 2.0
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = traced["wall_s"] / untraced_s - 1.0
    layers["campaign.jobs1_s"] = 0.0
    if wl.jobs > 1:
        single = spawn(workload, seed, workdir / "jobs1", jobs=1)
        passes.append(single)
        layers["campaign.jobs1_s"] = single["wall_s"]
    timed, _, lines = summarize_ops(passes)
    # from the reports the traced pass checked, its known-defect operations included
    checked = traced["ops"] + traced["defect_ops"]
    layers["checks.inconclusive"] = sum(op["inconclusive"] for op in checked)
    layers["checks.fail_rate"] = sum(not op["ok"] for op in checked) / len(checked)

    print(f"{workload} seed={seed}: traced wall {traced['wall_s']:.4f} s, untraced "
          f"{untraced_s:.4f} s, {traced['spans']} spans in {traced['spans_file']}")
    print("self time by span (traced process, set-up included):")
    for name, secs in traced["self_times"][:12]:
        print(f"  {name:28s} {secs:10.4f} s")
    metrics = {}
    for name, unit, _, moves, on in LAYER_METRICS:
        metrics[name] = {"value": layers[name], "unit": unit}
        print(f"{name:38s} {layers[name]:16.6g} {unit:6s} moves {moves} on {on}")
    print("\n".join(lines))
    return timed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lshlab" / "__init__.py").is_file():
        print(f"error: no lshlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = HERE / "_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    ops, metrics = [], {}
    try:
        for name in names:
            if args.trace:
                timed, m = run_traced(name, args.seed, workdir / name)
            else:
                timed, m = run_untraced(name, args.seed, args.seconds, workdir / name)
            ops += timed
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for op in ops if not op["ok"])
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
