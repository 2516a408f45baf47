"""Metric arithmetic for the end-to-end benchmark (no FHE imports).

Everything here is pure: the metric names, latency percentiles under
the "at least ten samples beyond" rule, SLO accounting that counts
failures as misses, open-loop latency measured from the scheduled send
time, and the span analysis the traced run uses to attribute wall time
to layers (a span's self time is its duration minus the time of its
children on the blocking path).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

#: A reported percentile must leave at least this many samples above it.
MIN_TAIL_SAMPLES = 10

# ----- metric names (BENCHMARK.json lists the same, in this order) -------------

#: (name, unit) of every end-to-end metric, as BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_jobs_per_s", "jobs/s"),
    ("slo_met_ratio", "ratio"),
    ("success_ratio", "ratio"),
    ("precision_bits_min", "bits"),
    ("peak_rss_mb", "MB"),
)

EVALUATOR_OPS = ("multiply", "multiply_plain", "multiply_scalar", "rotate",
                 "galois_hoisted", "rotate_reduce", "rescale", "conjugate")
KEYSWITCH_ENTRIES = ("mod_up", "mod_down", "mod_down_pair",
                     "mod_down_many", "key_switch_accumulate")
BOOTSTRAP_PHASES = ("mod_raise", "sub_sum", "coeff_to_slot", "eval_mod",
                    "slot_to_coeff")
KERNEL_FIELDS = ("ntt_forward", "ntt_inverse", "bconv_calls",
                 "bconv_planes", "moddown")
SELF_LAYERS = ("bench", "scheduler", "supervisor", "wire", "planner",
               "admission", "executor", "evaluator", "keyswitch",
               "bootstrap")

#: (name, unit) of every per-layer metric.  Times and counts are per
#: completed request over the timed region.
PER_LAYER = (
    ("scheduler.queue_wait_p50_s", "s"),
    ("scheduler.admit_s", "s/job"),
    ("scheduler.batch_size_mean", "jobs"),
    ("scheduler.plan_cache_hit_ratio", "ratio"),
    ("scheduler.shared_job_ratio", "ratio"),
    ("supervisor.retry_ratio", "ratio"),
    ("wire.serialize_s", "s/job"),
    ("wire.deserialize_s", "s/job"),
    ("wire.calls", "calls/job"),
    ("wire.bytes", "B/job"),
    ("registry.galois_bytes", "B"),
    ("registry.evictions", "count"),
    ("planner.plan_s", "s/job"),
    ("planner.calls", "calls/job"),
    ("admission.price_s", "s/job"),
    ("admission.calls", "calls/job"),
    ("executor.busy_s", "s/job"),
    ("executor.utilization", "ratio"),
    *((f"evaluator.{op}{suffix}", unit) for op in EVALUATOR_OPS
      for suffix, unit in ((".calls", "calls/job"), ("_s", "s/job"))),
    *((f"keyswitch.{fn}{suffix}", unit) for fn in KEYSWITCH_ENTRIES
      for suffix, unit in ((".calls", "calls/job"), ("_s", "s/job"))),
    ("bootstrap.calls", "calls/job"),
    *((f"bootstrap.{phase}_s", "s/job") for phase in BOOTSTRAP_PHASES),
    *((f"kernel.{field}", "count/job") for field in KERNEL_FIELDS),
    *((f"self.{layer}_s", "s/job") for layer in SELF_LAYERS),
    ("trace.residual_ratio", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("bench.generator_lag_tail_s", "s"),
)


# ----- latency distributions ---------------------------------------------------

def percentile(samples, q: float) -> float:
    """Nearest-rank ``q`` percentile (0 < q <= 1) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile {q} outside (0, 1]")
    return ordered[max(1, math.ceil(q * len(ordered) - 1e-9)) - 1]


def samples_beyond(samples, q: float) -> int:
    """How many samples lie strictly above the ``q`` percentile."""
    value = percentile(samples, q)
    return sum(1 for s in samples if s > value)


def min_samples_for(q: float) -> int:
    """Smallest sample count whose ``q`` percentile has ten beyond it."""
    n = MIN_TAIL_SAMPLES
    while n - math.ceil(q * n - 1e-9) < MIN_TAIL_SAMPLES:
        n += 1
    return n


def tail_quantile(n: int, q_max: float = 0.95) -> float:
    """Highest quantile <= ``q_max`` that leaves ten of ``n`` samples above.

    ``n - 10`` samples at or below it; needs ``n > 10``.
    """
    if n <= MIN_TAIL_SAMPLES:
        raise ValueError(f"{n} samples cannot support any tail percentile")
    return min(q_max, (n - MIN_TAIL_SAMPLES) / n)


def checked_percentile(samples, q: float) -> float:
    """``q`` percentile, refusing when fewer than ten samples lie beyond."""
    beyond = len(samples) - math.ceil(q * len(samples) - 1e-9)
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q * 100:g} of {len(samples)} samples leaves {beyond} "
            f"beyond it; need {MIN_TAIL_SAMPLES} "
            f"(at least {min_samples_for(q)} samples)")
    return percentile(samples, q)


def median(samples) -> float:
    return float(statistics.median(samples))


# ----- request outcomes ----------------------------------------------------------

@dataclass
class Outcome:
    """One attempted request as the client saw it.

    ``scheduled`` is when the request was due (open loop) or submitted
    (closed loop); ``done`` is when the client got the answer or the
    error.  ``ok`` is False for rejected, failed and wrong-output jobs.
    ``speed`` is the host-speed factor measured around the request
    (reference seconds per wall second, see ``e2e_hostspeed``).
    """

    scheduled: float
    sent: float
    done: float
    ok: bool = True
    error_bits: float | None = None  #: -log2(max abs error), once verified
    speed: float = 1.0

    @property
    def latency(self) -> float:
        """Open-loop latency: from the *scheduled* send, so a stalled
        generator's delay is charged to every request it held back."""
        return self.done - self.scheduled

    @property
    def ref_latency(self) -> float:
        """:attr:`latency` in reference seconds (rescaled to a quiet host)."""
        return self.latency * self.speed

    @property
    def lag(self) -> float:
        """How late the generator sent this request."""
        return self.sent - self.scheduled


def slo_met_ratio(outcomes: list[Outcome], limit_s: float) -> float:
    """Share of attempted requests that succeeded within ``limit_s``
    (reference seconds).

    A failed, rejected or wrong request misses the SLO whatever its
    latency.
    """
    if not outcomes:
        raise ValueError("no requests attempted")
    met = sum(1 for o in outcomes if o.ok and o.ref_latency <= limit_s)
    return met / len(outcomes)


def error_rate(outcomes: list[Outcome]) -> float:
    if not outcomes:
        raise ValueError("no requests attempted")
    return sum(1 for o in outcomes if not o.ok) / len(outcomes)


def precision_bits(max_abs_error: float) -> float:
    """``-log2`` of the worst slot error (exact outputs read as 64 bits)."""
    if max_abs_error <= 0.0:
        return 64.0
    return -math.log2(max_abs_error)


# ----- span analysis ---------------------------------------------------------------

@dataclass
class SpanRec:
    """A closed span reduced to what the analysis needs."""

    span_id: int
    name: str
    layer: str
    tid: int
    t0: float
    t1: float
    parent: int | None = None          #: explicit parent id, if any
    children: list["SpanRec"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def build_tree(spans: list[SpanRec], async_tids=()) -> list[SpanRec]:
    """Link spans into one forest; returns the roots.

    Work on a synchronous thread (a pool worker, or the caller of a
    blocking loop) nests strictly, so there the innermost span of the
    same thread that encloses a span is its parent: this puts a layer
    wrapper's span under the executor node span it ran inside, and
    gives orphan spans (opened where no parent was passed in) their
    caller.  A parent on *another* thread, or any span on an
    ``async_tids`` thread (an event loop, where concurrent tasks' spans
    interleave), keeps its explicit parent.
    """
    by_id = {s.span_id: s for s in spans}
    enclosing: dict[int, SpanRec | None] = {}
    per_thread: dict[int, list[SpanRec]] = {}
    for s in spans:
        s.children = []
        per_thread.setdefault(s.tid, []).append(s)
    for tid, members in per_thread.items():
        if tid in async_tids:
            continue
        stack: list[SpanRec] = []
        for s in sorted(members, key=lambda r: (r.t0, -r.t1, r.span_id)):
            while stack and stack[-1].t1 < s.t1:
                stack.pop()
            enclosing[s.span_id] = stack[-1] if stack else None
            stack.append(s)
    roots = []
    for s in spans:
        explicit = by_id.get(s.parent) if s.parent is not None else None
        parent = explicit
        if s.tid not in async_tids and (explicit is None
                                        or explicit.tid == s.tid):
            parent = enclosing.get(s.span_id) or explicit
        if parent is None:
            roots.append(s)
        else:
            parent.children.append(s)
    return roots


def blocking_path(span: SpanRec) -> list[tuple[SpanRec, float]]:
    """``(span, self time on the path)`` along the spans that blocked ``span``.

    Walks back from the span's end: the child that finished last blocked
    it, then whichever child finished before that one started, and so
    on.  Children overlapping a chosen one ran concurrently and are not
    on the path (their time shows up as the chosen child's waiting).
    The returned self times sum to ``span.duration``.
    """
    path: list[tuple[SpanRec, float]] = []
    cursor = span.t1
    chosen = 0.0
    for child in sorted(span.children, key=lambda c: c.t1, reverse=True):
        t0, t1 = max(child.t0, span.t0), min(child.t1, span.t1)
        if t1 > cursor or t1 <= t0:
            continue
        path.extend(blocking_path(child))
        chosen += child.duration
        cursor = t0
    path.append((span, span.duration - chosen))
    return path


@dataclass
class Reconciliation:
    """Layer self times along the blocking paths of the timed requests."""

    wall_s: float                  #: summed request-root durations
    layer_self_s: dict[str, float]  #: layer -> self time on the paths
    negative: list[str] = field(default_factory=list)  #: spans whose
    #: children stick out of them (a broken tree, not a timing)

    @property
    def attributed_s(self) -> float:
        """Self time of every layer but the benchmark harness itself."""
        return sum(v for k, v in self.layer_self_s.items() if k != "bench")

    @property
    def residual_s(self) -> float:
        """Blocking time no traced layer accounts for."""
        return self.wall_s - self.attributed_s

    @property
    def residual_ratio(self) -> float:
        return self.residual_s / self.wall_s if self.wall_s > 0 else 0.0


def reconcile(request_roots: list[SpanRec]) -> Reconciliation:
    """Sum per-layer self time along each request root's blocking path."""
    layers: dict[str, float] = {}
    negative: list[str] = []
    wall = 0.0
    for root in request_roots:
        wall += root.duration
        for span, own in blocking_path(root):
            layers[span.layer] = layers.get(span.layer, 0.0) + own
            if own < -1e-6:
                negative.append(f"{span.name}#{span.span_id}")
    return Reconciliation(wall_s=wall, layer_self_s=layers,
                          negative=negative)
