"""Layer probe for the traced run: wrappers around each layer's entry points.

The probe patches the public entry points of every layer *at the name
its caller resolves* (``repro.service.scheduler.execute`` is the
executor as the scheduler sees it, ``repro.ckks.linear_transform``
holds its own references to the key-switching functions, and so on),
records one span per call into a :class:`BenchTracer`, and counts calls,
seconds and bytes per entry point.  Nothing under ``src/`` changes;
``uninstall`` puts every original back.

Kernel work is read from the gated :mod:`repro.obs.kernel` tallies,
which are per thread: the probe snapshots them on the worker thread
around each *outermost* executor-level call (``execute``,
``execute_subgraph``, and a ``galois_hoisted`` the scheduler runs to
coalesce rotations across jobs), so shared work done once per batch is
counted once and nested calls are not counted twice.
"""

from __future__ import annotations

import contextlib
import contextvars
import importlib
import threading
import time

from repro import obs
from repro.obs import kernel as obs_kernel
from repro.obs.trace import Span, Tracer

from e2e_metrics import BOOTSTRAP_PHASES, EVALUATOR_OPS, SpanRec

#: The span new work should hang under, per thread / asyncio task.
_CURRENT: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "e2ebench_current_span", default=None)

#: metric name -> keyswitch function.  ModUp of every decomposition
#: slice happens in ``raise_decomposition`` (``mod_up`` itself has no
#: caller), so that is the ModUp entry point.
KEYSWITCH_FUNCS = {"mod_up": "raise_decomposition",
                   "mod_down": "mod_down",
                   "mod_down_pair": "mod_down_pair",
                   "mod_down_many": "mod_down_many",
                   "key_switch_accumulate": "key_switch_accumulate"}
#: modules whose callers resolve the keyswitch names through them
KEYSWITCH_CALLERS = ("repro.ckks.keyswitch", "repro.ckks.linear_transform")

#: layer of each scheduler/supervisor span name (the rest are scheduler)
_SUPERVISOR_SPANS = ("supervise", "retry_backoff")


class BenchTracer(Tracer):
    """A tracer whose parentless spans hang under the caller's current span.

    The scheduler opens each job's root span with no parent; under this
    tracer it lands under the benchmark's request span, because the
    submitting asyncio task carries that span in :data:`_CURRENT`.
    """

    def span(self, name: str, cat: str = "", parent: Span | None = None,
             **args) -> Span:
        return super().span(name, cat, parent or _CURRENT.get(), **args)


@contextlib.contextmanager
def request_span(tracer: BenchTracer | None, name: str, **args):
    """Open a benchmark request span and make it current (no-op untraced)."""
    if tracer is None:
        yield None
        return
    span = tracer.span(name, cat="bench", **args)
    token = _CURRENT.set(span)
    try:
        yield span
    finally:
        _CURRENT.reset(token)
        span.end()


def layer_of(span: Span) -> str:
    """Layer a span's self time is charged to."""
    if span.cat in ("bench", "executor", "evaluator", "keyswitch",
                    "bootstrap", "planner", "admission", "wire"):
        return span.cat
    if span.cat == "op":
        return "executor"      # per-node glue around the evaluator call
    if span.name in _SUPERVISOR_SPANS:
        return "supervisor"
    return "scheduler"


class LayerProbe:
    """Patch, count and span the entry point of every reported layer."""

    def __init__(self, tracer: BenchTracer) -> None:
        self.tracer = tracer
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.nbytes: dict[str, int] = {}
        #: (start, label, kernel delta) per outermost executor-level call
        self.kernel_calls: list[tuple[float, str, dict[str, int]]] = []

    # ----- patching ----------------------------------------------------------

    def install(self) -> None:
        from repro.ckks.bootstrap import Bootstrapper
        from repro.ckks.evaluator import Evaluator
        from repro.core.simulator import BtsSimulator

        sched = importlib.import_module("repro.service.scheduler")
        executor = importlib.import_module("repro.runtime.executor")
        self._wrap(sched, "execute", "executor.execute", "executor",
                   kernel=True, exec_span=True)
        self._wrap(executor, "execute", "executor.execute", "executor",
                   kernel=True, exec_span=True)
        self._wrap(executor, "execute_subgraph", "executor.execute",
                   "executor", kernel=True, exec_span=True)
        for op in EVALUATOR_OPS:
            self._wrap(Evaluator, op, f"evaluator.{op}", "evaluator",
                       kernel=op == "galois_hoisted")
        for module_name in KEYSWITCH_CALLERS:
            module = importlib.import_module(module_name)
            for metric, func in KEYSWITCH_FUNCS.items():
                if hasattr(module, func):
                    self._wrap(module, func, f"keyswitch.{metric}",
                               "keyswitch")
        self._wrap(Bootstrapper, "bootstrap", "bootstrap.bootstrap",
                   "bootstrap")
        for phase in BOOTSTRAP_PHASES:
            self._wrap(Bootstrapper, phase, f"bootstrap.{phase}",
                       "bootstrap")
        self._wrap(importlib.import_module("repro.runtime.planner"),
                   "plan_program", "planner.plan", "planner")
        self._wrap(importlib.import_module("repro.runtime.lowering"),
                   "lower_to_trace", "admission.price", "admission")
        self._wrap(BtsSimulator, "run", "admission.price", "admission")
        wire = importlib.import_module("repro.service.wire")
        self._wrap(wire, "serialize_ciphertext", "wire.serialize", "wire",
                   count_bytes="result")
        self._wrap(wire, "deserialize_ciphertext", "wire.deserialize",
                   "wire", count_bytes="arg0")

    @contextlib.contextmanager
    def active(self):
        """Wrappers and kernel tallies on for the timed region only."""
        obs.enable()
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            obs.disable()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr: str, key: str, layer: str,
              kernel: bool = False, exec_span: bool = False,
              count_bytes: str | None = None) -> None:
        original = getattr(owner, attr)
        probe = self
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            if exec_span:
                # The executor's own per-node spans hang under ours.
                parent = kwargs.get("span") or _CURRENT.get()
                span = tracer.span(key, cat=layer, parent=parent)
                kwargs["span"] = span
            else:
                span = tracer.span(key, cat=layer)
            token = _CURRENT.set(span)
            outermost = kernel and probe._enter_kernel()
            before = obs_kernel.snapshot() if outermost else None
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                work = obs_kernel.delta(before) if outermost else None
                if kernel:
                    probe._exit_kernel()
                _CURRENT.reset(token)
                span.end()
            size = 0
            if count_bytes == "result":
                size = len(result)
            elif count_bytes == "arg0":
                size = len(args[0])
            with probe._lock:
                probe.calls[key] = probe.calls.get(key, 0) + 1
                probe.seconds[key] = probe.seconds.get(key, 0.0) + elapsed
                if count_bytes:
                    probe.nbytes[key] = probe.nbytes.get(key, 0) + size
                if work is not None:
                    label = getattr(getattr(args[0], "program", None),
                                    "name", key)
                    probe.kernel_calls.append((t0, label, work))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _enter_kernel(self) -> bool:
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        return depth == 0

    def _exit_kernel(self) -> None:
        self._local.depth -= 1

    # ----- readout -----------------------------------------------------------

    def kernel_totals(self, t_lo: float = float("-inf"),
                      t_hi: float = float("inf")) -> dict[str, int]:
        """Summed kernel work of calls that started in ``[t_lo, t_hi)``."""
        totals = dict.fromkeys(obs_kernel.FIELDS, 0)
        with self._lock:
            records = list(self.kernel_calls)
        for t0, _label, delta in records:
            if t_lo <= t0 < t_hi:
                for key, value in delta.items():
                    totals[key] += value
        return totals

    def kernel_signature(self, t_lo: float, t_hi: float) -> list:
        """Per-call kernel work in a window, order-free (for exact repeats)."""
        with self._lock:
            records = list(self.kernel_calls)
        return sorted((label, tuple(delta[f] for f in obs_kernel.FIELDS))
                      for t0, label, delta in records if t_lo <= t0 < t_hi)

    def span_records(self, t_lo: float, t_hi: float) -> list[SpanRec]:
        """Closed spans that started inside the timed window."""
        return [SpanRec(span_id=s.span_id, name=s.name, layer=layer_of(s),
                        tid=s.tid, t0=s.t0, t1=s.t1,
                        parent=None if s.parent is None
                        else s.parent.span_id)
                for s in list(self.tracer.spans)
                if s.t1 is not None and t_lo <= s.t0 < t_hi]

    def wrapper_cost_s(self, reps: int = 2000) -> float:
        """Measured cost of one wrapped call (span + bookkeeping)."""

        class _Target:
            @staticmethod
            def noop(*_args, **_kwargs):
                return b""

        scratch = LayerProbe(BenchTracer())
        scratch._wrap(_Target, "noop", "probe.noop", "bench",
                      count_bytes="result")
        wrapped = _Target.noop
        t0 = time.perf_counter()
        for _ in range(reps):
            wrapped()
        elapsed = time.perf_counter() - t0
        scratch.uninstall()
        bare = _Target.noop
        t0 = time.perf_counter()
        for _ in range(reps):
            bare()
        return max(0.0, elapsed - (time.perf_counter() - t0)) / reps
