"""One pass of one workload, in a fresh interpreter.

    python3 benchmarks/bench_pass.py --workload NAME --seed N --workdir DIR
        [--mode pass|setup|traced] [--jobs N]

Set-up is timed from ``import lshlab`` until the workload's measures, fields
and config are built; the pass is timed around the workload's operations
only.  Peak resident memory is read right after the timed region.  Output
checks and the known-defect operations run after that.  The result is the
last line of standard output, as JSON.

``lshlab`` is imported from ``src/`` of the checkout that holds this file,
never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, op_result  # noqa: E402  (stdlib only)


def _import_lshlab():
    sys.path.insert(0, str(ROOT / "src"))
    import lshlab

    if Path(lshlab.__file__).resolve().parent != ROOT / "src" / "lshlab":
        raise SystemExit(f"imported lshlab from {lshlab.__file__}, not from {ROOT / 'src'}")
    return lshlab


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--mode", choices=("pass", "setup", "traced"), default="pass")
    parser.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    args.workdir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    L = _import_lshlab()
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(L)
    state = wl.setup(L, inputs, args.workdir)
    setup_s = time.perf_counter() - t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    jobs = args.jobs or wl.jobs
    error = None
    root = tracer.open("harness") if tracer else None
    t1 = time.perf_counter()
    try:
        out = wl.run(L, state, jobs)
    except Exception:  # an operation that raises counts as failed
        out, error = None, traceback.format_exc(limit=4)
    wall_s = time.perf_counter() - t1
    if tracer:
        tracer.close(*root)
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if error is None:
        ops = wl.verify(L, inputs, state, out)
    else:
        ops = [op_result(f"{wl.name} operations", f"raised: {error}")]
    defect_ops = wl.defects(L, inputs, state)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "defect_ops": defect_ops,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(jobs)
        result["self_times"] = tracer.self_time_table()
        spans_path = HERE / "_work" / "traces" / f"{wl.name}-seed{args.seed}.spans.csv"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_path)
        result["spans_file"] = str(spans_path)
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
