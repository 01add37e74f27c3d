"""Self-test of the benchmark harness.

    python3 benchmarks/selftest.py

Checks that
  1. the tracer's wrappers are gone after ``uninstall``: every lshlab module
     attribute and method is the original object again;
  2. a deliberately wrong verdict, or a quantity off its closed form, is
     counted as a failed operation;
  3. the closed form the campaign expects of the dilated-convolution bound
     matches a conclusive report of that check;
  4. on a small campaign run on two threads, each worker thread's self
     times sum to the time its spans cover, the main thread's to the traced
     wall minus the workers' cover, and the time no layer covers stays within
     the measured tracing overhead;
  5. BENCHMARK.json lists the workloads and per-layer metrics defined here.
Exits 0 when all hold.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import lshlab as L  # noqa: E402

from run import summarize_ops  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Expect, bump_mgf, gauss_norm, gauss_slsi, op_result, verify_report,
)


def _snapshot():
    """Every attribute of every lshlab module, and of the classes the tracer patches."""
    owners = [m for n, m in sys.modules.items() if n == "lshlab" or n.startswith("lshlab.")]
    owners += [L.fields.ScalarField, L.measures.Density]
    return {(id(o), name): (o, value) for o in owners for name, value in vars(o).items()}


def check_restored() -> list:
    before = _snapshot()
    tracer = Tracer()
    tracer.install(L)
    patched = sum(1 for (o, name), (owner, value) in before.items()
                  if vars(owner).get(name) is not value)
    L.check_slsi(L.log_linear([0.5]), L.gaussian(1.0, 1), 1.0)
    tracer.uninstall()
    after = _snapshot()
    problems = []
    if patched < 40:
        problems.append(f"only {patched} attributes were wrapped")
    for key, (owner, value) in before.items():
        if after.get(key, (None, None))[1] is not value:
            problems.append(f"{getattr(owner, '__name__', owner)}.{key[1]} not restored")
    leftover = [key[1] for key, (_, value) in after.items() if getattr(value, "__traced__", False)]
    if leftover:
        problems.append(f"{len(leftover)} wrappers left installed")
    return problems


def check_wrong_verdict() -> list:
    mu = L.gaussian(1.0, 1)
    lam = 0.7
    rep = L.check_slsi(L.log_linear([lam]), mu, 1.0)
    expect = Expect("PASS", gauss_slsi(lam * lam, 1.0))
    problems = []
    if verify_report(rep, expect) is not None:
        problems.append(f"correct report rejected: {verify_report(rep, expect)}")
    flipped = dataclasses.replace(rep, passed=not rep.passed)
    off = dataclasses.replace(rep, quantities={**rep.quantities,
                                               "entropy": rep.quantities["entropy"] + 10 * rep.tolerance})
    inconclusive = dataclasses.replace(rep, inconclusive=True, notes=["inconclusive: test"])
    ops = [op_result(name, verify_report(r, expect))
           for name, r in (("flipped", flipped), ("off", off), ("inconclusive", inconclusive))]
    _, failed, _ = summarize_ops([{"ops": ops, "defect_ops": []}])
    if len(failed) != 3:
        problems.append(f"{len(failed)} of 3 wrong reports counted as failed")
    return problems


def _union(intervals) -> float:
    covered, cursor = 0.0, float("-inf")
    for a, b in sorted(intervals):
        a = max(a, cursor)
        if b > a:
            covered += b - a
            cursor = b
    return covered


def check_self_times() -> list:
    """On a small two-thread campaign, self times add up thread by thread."""
    f = lambda lam: {"builder": "log_linear", "lam": [lam]}
    config = L.campaign.CampaignConfig.from_dict({
        "seed": 1,
        "quadrature": {"scheme": "auto"},
        "measures": {"gen_gauss": {"family": "gen_exponential", "c": 0.5, "a": 2.0, "dim": 1},
                     "gauss": {"family": "gaussian", "sigma": 1.0, "dim": 1}},
        "fields": {"f0": f(0.4), "f1": f(0.8), "f2": f(1.1)},
        "checks": [{"check": check, "measure": mu, "fields": ["f0", "f1", "f2"], "c": 1.0}
                   for check in ("slsi", "shc") for mu in ("gen_gauss", "gauss")],
    })
    jobs = 2

    def one_pass():
        L.campaign.run_campaign(config, jobs=jobs)

    one_pass()  # warm caches so both timed runs do the same work
    t0 = perf_counter()
    one_pass()
    untraced = perf_counter() - t0
    tracer = Tracer()
    tracer.install(L)
    root = tracer.open("harness")
    t0 = perf_counter()
    one_pass()
    traced = perf_counter() - t0
    tracer.close(*root)
    tracer.uninstall()

    main = threading.get_ident()
    selfs = tracer.span_self_times()
    spans = {sid: (name, start, end, parent, thread)
             for sid, name, start, end, parent, thread in tracer.spans}
    runs = [sid for sid, sp in spans.items() if sp[0] == "campaign.run"]
    root_s = tracer.inclusive("harness")
    tol = 1e-9 * root_s
    problems = []
    if len(runs) != 1:
        return [f"{len(runs)} campaign.run spans, expected 1"]
    run = runs[0]
    negative = [spans[sid][0] for sid, v in selfs.items() if v < -tol]
    if negative:
        problems.append(f"negative self time in {sorted(set(negative))}")
    workers = {sp[4] for sp in spans.values()} - {main}
    if not workers:
        problems.append("no span opened on a worker thread")
    worker_tops = []
    for thread in sorted(workers):
        mine = {sid: sp for sid, sp in spans.items() if sp[4] == thread}
        tops = [sp for sp in mine.values() if sp[3] not in mine]
        if any(sp[3] != run for sp in tops):
            problems.append("a worker span does not hang under campaign.run")
        covered = _union((sp[1], sp[2]) for sp in tops)
        own = sum(selfs[sid] for sid in mine)
        if abs(own - covered) > tol:
            problems.append(f"worker thread: self times sum to {own:.6f} s, "
                            f"its spans cover {covered:.6f} s")
        worker_tops += [(sp[1], sp[2]) for sp in tops]
    # the main thread waits inside campaign.run while the workers run
    main_own = sum(v for sid, v in selfs.items() if spans[sid][4] == main)
    main_want = root_s - _union(worker_tops)
    if abs(main_own - main_want) > tol:
        problems.append(f"main thread: self times sum to {main_own:.6f} s, expected "
                        f"{main_want:.6f} s (root wall minus worker cover)")
    # what no layer wrapper covers is harness self time; it must stay within the
    # tracing overhead, or some layer runs unwrapped
    harness = tracer.self_times()["harness"]
    allowed = abs(traced - untraced) + 1e-3
    if harness > allowed:
        problems.append(f"harness self time {harness:.4f} s, overhead {traced - untraced:+.4f} s")
    busy = tracer.layer_metrics(jobs)["campaign.pool_busy_frac"]
    if not 0.0 < busy <= 1.0:
        problems.append(f"campaign.pool_busy_frac = {busy}")
    print(f"  traced {traced:.4f} s, untraced {untraced:.4f} s, {len(workers)} worker "
          f"threads, harness self {harness:.4f} s, pool busy {busy:.3f}")
    return problems


def check_dilated_convolution_expectation() -> list:
    """The campaign's closed form for the dilated-convolution lhs, on a conclusive report."""
    lam, sigma, r, k = 0.9, 1.1, 0.7, 4
    rep = L.checks.check_dilated_convolution_bound(
        L.log_linear([lam]), L.gaussian(sigma, 1), 1.0, L.fields.mollifier(1, k), r)
    expect = Expect("PASS", {"lhs": bump_mgf(lam / k) * gauss_norm((lam * sigma * r) ** 2)})
    problems = []
    if rep.inconclusive:
        return [f"report inconclusive: {rep.notes}"]
    if verify_report(rep, expect) is not None:
        problems.append(f"correct report rejected: {verify_report(rep, expect)}")
    off = dataclasses.replace(rep, quantities={**rep.quantities,
                                               "lhs": rep.quantities["lhs"] + 10 * rep.tolerance})
    if verify_report(off, expect) is None:
        problems.append("lhs off its closed form by 10 tolerances was accepted")
    return problems


def check_benchmark_json() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    want = [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in LAYER_METRICS]
    if spec["per_layer"] != want:
        problems.append("BENCHMARK.json per_layer differs from tracer.LAYER_METRICS")
    return problems


def main() -> int:
    failures = 0
    for check in (check_restored, check_wrong_verdict, check_dilated_convolution_expectation,
                  check_self_times, check_benchmark_json):
        problems = check()
        print(f"{check.__name__}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
