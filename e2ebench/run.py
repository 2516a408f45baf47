"""End-to-end FHE benchmark with per-layer attribution.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload serve_fanout --seed 1 --seconds 15 \\
        --trace 0

Workloads (see ``e2e_workloads.py`` and ``BENCHMARK.json``):

* ``serve_fanout`` — closed-loop bursts of 8 jobs over one fresh
  encrypted pair, built so that most of a burst is shareable work;
* ``boot_helr``    — a two-iteration HELR with one planner-inserted
  bootstrap, executed directly (no service layer);
* ``serve_mixed``  — open-loop Poisson traffic from two tenants through
  ``FheServer``: stencils drawn with a skew from a catalogue larger than
  the plan cache, one job in four an HELR iteration.  Not listed in
  ``BENCHMARK.json``: on a busy shared host its latencies (small jobs
  whose time is mostly thread hand-offs, which the host-speed reference
  does not see) spread 30% of the median between runs even rescaled.

``--trace 0`` measures the end-to-end metrics with every instrument off.
``--trace 1`` runs the same workload with a probe around each layer's
entry points and reports the per-layer metrics instead; it also checks
that per-request kernel work repeats exactly (``serve_fanout``,
``boot_helr``), that layer self times along the blocking path reconcile
with the traced wall time, and writes the spans once, at the end, as a
Chrome trace under ``.bench_out/``.

End-to-end times are in reference seconds: wall time rescaled by the
host speed sampled around each set-up and request group
(``e2e_hostspeed``), so that runs on a shared host whose speed drifts
agree.  Every output is decrypted and checked against a NumPy reference
outside the timed region.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a wrong output, a
kernel-count mismatch or a trace that does not reconcile makes the exit
code non-zero.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import e2e_metrics as m  # noqa: E402  (pure: no program imports)
from e2e_metrics import (  # noqa: E402
    BOOTSTRAP_PHASES,
    END_TO_END,
    EVALUATOR_OPS,
    KEYSWITCH_ENTRIES,
    PER_LAYER,
    SELF_LAYERS,
)

#: A traced run's layer self times must account for this much of the
#: blocking-path wall time.
RECONCILE_TOLERANCE = 0.05


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve_mixed", "serve_fanout", "boot_helr"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end_metrics(run) -> dict[str, float]:
    """The user-visible metrics of one untraced run."""
    done = [o for o in run.outcomes if o.ok]
    latencies = [o.ref_latency for o in done]
    tail_q = m.tail_quantile(len(latencies))
    bits = [o.error_bits for o in run.outcomes if o.error_bits is not None]
    return {
        "setup_s": run.setup_s,
        "latency_p50_s": m.median(latencies),
        "latency_tail_s": m.percentile(latencies, tail_q),
        "throughput_jobs_per_s": len(done) / run.ref_wall_s,
        "slo_met_ratio": m.slo_met_ratio(run.outcomes, run.slo_s),
        "success_ratio": 1.0 - m.error_rate(run.outcomes),
        "precision_bits_min": min(bits),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def report_end_to_end(run, values) -> None:
    """Human-readable block: eight user-facing metrics by name and unit.

    Times are reference seconds; the wall-clock median is shown beside
    the reference one for comparison.
    """
    done = [o for o in run.outcomes if o.ok]
    latencies = [o.ref_latency for o in done]
    n = len(latencies)
    tail_q = m.tail_quantile(n)
    speeds = [o.speed for o in done]
    lines = [
        ("setup_s", values["setup_s"], "s",
         "median of 3 set-ups: ring, keys, registration, warm-up"),
        ("latency_p50_s", values["latency_p50_s"], "s",
         f"n={n}, wall {m.median([o.latency for o in done]):.4f} s, host "
         f"speed factor {min(speeds):.2f}-{max(speeds):.2f}"),
    ]
    if tail_q >= 0.95:
        lines.append(("latency_p95_s", values["latency_tail_s"], "s",
                      f"n={n}, {m.samples_beyond(latencies, 0.95)} beyond"))
    else:
        lines.append(("latency_p95_s", None, "s",
                      f"not supported by n={n}; tail is "
                      f"p{tail_q * 100:.1f} = "
                      f"{values['latency_tail_s']:.4f} s"))
    lines += [
        ("throughput_jobs_per_s", values["throughput_jobs_per_s"], "jobs/s",
         f"over {run.ref_wall_s:.2f} s (wall {run.wall_s:.2f} s)"),
        ("slo_met_ratio", values["slo_met_ratio"], "ratio",
         f"limit {run.slo_s} s, failures count as misses"),
        ("error_rate", 1.0 - values["success_ratio"], "ratio",
         f"{sum(1 for o in run.outcomes if not o.ok)} of "
         f"{len(run.outcomes)} rejected, failed or wrong"),
        ("precision_bits_min", values["precision_bits_min"], "bits",
         "worst -log2(max abs error) over every decrypted output"),
        ("peak_rss_mb", values["peak_rss_mb"], "MB", "ru_maxrss"),
    ]
    for name, value, unit, note in lines:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:24s} {shown:>12s} {unit:7s} {note}")


def layer_metrics(run, probe) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a traced run, plus any failed checks."""
    problems: list[str] = []
    done = [o for o in run.outcomes if o.ok]
    jobs = max(1, len(done))
    calls, seconds, nbytes = probe.calls, probe.seconds, probe.nbytes
    lo, hi = run.windows[0][0], run.windows[-1][1] + 1e-6
    records = probe.span_records(lo, hi)
    values: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}

    results = [r for r in run.results if r is not None]
    if results:
        waits = [o.latency - r.wall_seconds
                 for o, r in zip(run.outcomes, run.results) if r is not None]
        admits = [r.duration for r in records if r.name == "admit"]
        batches = [s.args.get("batch_size", 0) for s in probe.tracer.spans
                   if s.name == "batch_assembly" and lo <= s.t0 < hi]
        values.update({
            "scheduler.queue_wait_p50_s": m.median(waits),
            "scheduler.admit_s": sum(admits) / jobs,
            "scheduler.batch_size_mean": (sum(batches) / len(batches)
                                          if batches else 0.0),
            "scheduler.plan_cache_hit_ratio":
                sum(r.plan_cache_hit for r in results) / len(results),
            "scheduler.shared_job_ratio":
                sum(bool(r.coalesced or r.cse_seeded) for r in results)
                / len(results),
            "supervisor.retry_ratio":
                sum(r.attempts - 1 for r in results) / len(results),
            "registry.galois_bytes": run.server.registry.galois_bytes,
            "registry.evictions": run.server.registry.evictions,
        })
    lags = [o.lag for o in run.outcomes]
    if any(lags):                       # open loop only
        values["bench.generator_lag_tail_s"] = m.percentile(
            lags, m.tail_quantile(len(lags)))

    def per_job(key: str, table=None) -> float:
        return (table if table is not None else seconds).get(key, 0) / jobs

    values.update({
        "wire.serialize_s": per_job("wire.serialize"),
        "wire.deserialize_s": per_job("wire.deserialize"),
        "wire.calls": (calls.get("wire.serialize", 0)
                       + calls.get("wire.deserialize", 0)) / jobs,
        "wire.bytes": (nbytes.get("wire.serialize", 0)
                       + nbytes.get("wire.deserialize", 0)) / jobs,
        "planner.plan_s": per_job("planner.plan"),
        "planner.calls": per_job("planner.plan", calls),
        "admission.price_s": per_job("admission.price"),
        "admission.calls": per_job("admission.price", calls),
        "executor.busy_s": per_job("executor.execute"),
        "executor.utilization": seconds.get("executor.execute", 0.0)
        / (run.wall_s * run.workers),
        "bootstrap.calls": per_job("bootstrap.bootstrap", calls),
    })
    for op in EVALUATOR_OPS:
        values[f"evaluator.{op}.calls"] = per_job(f"evaluator.{op}", calls)
        values[f"evaluator.{op}_s"] = per_job(f"evaluator.{op}")
    for fn in KEYSWITCH_ENTRIES:
        values[f"keyswitch.{fn}.calls"] = per_job(f"keyswitch.{fn}", calls)
        values[f"keyswitch.{fn}_s"] = per_job(f"keyswitch.{fn}")
    for phase in BOOTSTRAP_PHASES:
        values[f"bootstrap.{phase}_s"] = per_job(f"bootstrap.{phase}")
    for field, total in probe.kernel_totals(lo, hi).items():
        values[f"kernel.{field}"] = total / jobs

    # Exact kernel work per request group, where the work is fixed.
    if run.name in ("serve_fanout", "boot_helr"):
        signatures = [probe.kernel_signature(t0, t1)
                      for t0, t1 in run.windows]
        if not signatures[0]:
            problems.append("no kernel tallies recorded")
        mismatched = [i for i, sig in enumerate(signatures)
                      if sig != signatures[0]]
        if mismatched:
            problems.append(
                f"per-job kernel tallies differ from the first request "
                f"group in groups {mismatched[:10]}")

    # Layer self times along each request's blocking path.
    bench_tids = {r.tid for r in records if r.layer == "bench"}
    async_tids = bench_tids if run.name != "boot_helr" else set()
    roots = m.build_tree(records, async_tids=async_tids)
    request_roots = [r for r in roots if r.layer == "bench"]
    rec = m.reconcile(request_roots)
    for layer in SELF_LAYERS:
        values[f"self.{layer}_s"] = rec.layer_self_s.get(layer, 0.0) / jobs
    values["trace.residual_ratio"] = rec.residual_ratio
    print(f"  reconciliation: wall {rec.wall_s:.4f} s over "
          f"{len(request_roots)} requests, layers {rec.attributed_s:.4f} s, "
          f"residual {rec.residual_s:.4f} s ({rec.residual_ratio:.2%})")
    for layer in SELF_LAYERS:
        share = rec.layer_self_s.get(layer, 0.0)
        print(f"    self {layer:11s} {share:9.4f} s "
              f"({share / rec.wall_s if rec.wall_s else 0.0:6.1%})")
    if rec.negative:
        problems.append(f"spans with children outside them: "
                        f"{rec.negative[:5]}")
    if abs(rec.residual_ratio) > RECONCILE_TOLERANCE:
        problems.append(f"layer self times leave {rec.residual_ratio:.2%} "
                        f"of the blocking path unattributed "
                        f"(tolerance {RECONCILE_TOLERANCE:.0%})")

    overhead = len(records) * probe.wrapper_cost_s()
    values["obs.trace_overhead_ratio"] = overhead / run.wall_s
    return values, problems


def write_trace(tracer, workload: str, seed: int) -> list[str]:
    """Validate and write the Chrome trace once, at the end of the run."""
    from repro.obs import validate_chrome_trace

    trace = tracer.chrome_trace()
    problems = validate_chrome_trace(trace)
    if problems:
        return [f"chrome trace invalid: {problems[:3]}"]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump(trace, fh, default=str)
    print(f"  chrome trace: {path.relative_to(ROOT)} "
          f"({len(trace['traceEvents'])} events)")
    return []


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from e2e_layers import BenchTracer, LayerProbe
        from e2e_workloads import WORKLOADS
        from repro.ckks import modmath
    except ImportError as exc:
        print(f"e2ebench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2

    probe = LayerProbe(BenchTracer()) if args.trace else None
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}  modmath backend "
          f"{modmath.active_backend()}")
    run = WORKLOADS[args.workload](args.seed, args.seconds, probe)
    for note in run.notes:
        print(f"  note: {note}")
    problems = list(run.problems)
    e2e = end_to_end_metrics(run)
    report_end_to_end(run, e2e)
    if probe is None:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        layers, layer_problems = layer_metrics(run, probe)
        problems += layer_problems
        problems += write_trace(probe.tracer, args.workload, args.seed)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
    if run.server is not None:
        run.server.shutdown()
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    failed = sum(1 for o in run.outcomes if not o.ok)
    print(json.dumps({"correct": not problems,
                      "attempted": len(run.outcomes), "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
