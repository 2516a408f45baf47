"""The three benchmark workloads: set-up, timed run, output verification.

Every workload goes through public entry points only
(:class:`~repro.service.FheServer` / :class:`~repro.service.TenantClient`,
:func:`~repro.runtime.planner.plan_program`,
:func:`~repro.runtime.executor.execute`,
:class:`~repro.ckks.bootstrap.Bootstrapper`).  Programs and parameters
are fixed; ``--seed`` only draws the data, the key seeds, the arrival
schedule and which stencils the open loop asks for, so kernel work per
job is the same on every seed.

The closed loops run a fixed number of requests, sized from
``--seconds`` by each request's cost in reference seconds, rather than
as many as fit in ``--seconds`` of wall time: state the program keeps
per request (peak RSS grows with the request count) and the statistics
then cover the same work however fast the host runs.

Request inputs are encrypted outside both the set-up time and the
timed region, and every output is decrypted and checked against a
NumPy reference after the timed region.

Times are reported in reference seconds (``e2e_hostspeed``): every
set-up, program, burst and open-loop segment is bracketed by a
reference sample taken outside its timed region.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.ckks.bootstrap import BootstrapConfig, Bootstrapper
from repro.ckks.encoder import Encoder
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.params import CkksParams, RingContext
from repro.ckks.sine import SineConfig
from repro.runtime import executor as rt_executor
from repro.runtime.ir import OpCode, Program
from repro.runtime.planner import PlannerConfig, plan_program
from repro.service import FheServer, JobRequest, ServiceConfig, TenantClient
from repro.workloads.helr import HelrConfig, build_helr_program, \
    helr_program_reference

from e2e_hostspeed import reference_s, speed_factor
from e2e_layers import request_span
from e2e_metrics import Outcome, median, min_samples_for, precision_bits

#: An output is wrong when any slot is further than this from the
#: NumPy reference (the bootstrapped HELR carries ~14 bits).  Messages
#: are drawn from bounded ranges, so the worst error is a property of
#: the program rather than of one outlying draw.
TOLERANCE = 2.0 ** -8
#: Set-ups per run; ``setup_s`` is the median of their times in
#: reference seconds.
SETUP_REPS = 3
#: serve_fanout reports a p95 with ten samples beyond it.
FANOUT_MIN_JOBS = min_samples_for(0.95)

# ----- served workloads: N=2^11, L=10, dnum=2, 16 slots -------------------------

SERVE_PARAMS = dict(n=1 << 11, l=10, dnum=2)
SLOTS = 16
WORKERS = 2
#: Admission pricing on; the ceiling (simulated accelerator seconds)
#: sits far above every job here, so it prices without rejecting.
ADMISSION_CEILING_S = 1.0
HELR_SERVED = HelrConfig(iterations=1, batch=4, features=3,
                         padded_features=4, sigmoid_depth=1)

#: serve_mixed: aggregate Poisson rate of both tenants, a fifth of the
#: closed-loop capacity (~12 jobs/s with 8 in flight on a 2-core host).
#: The scheduler runs one batch at a time, so in an open loop (batches
#: of ~1 job) the pipeline is busier than that fraction suggests: at 4,
#: 5 and 6 jobs/s queueing amplified host-speed drift until the median
#: and p95 latency varied by 30-40% between runs.  (Pacing arrivals by
#: the measured host speed, at 4 jobs per reference second, did not
#: help: 23-26% spread on a busy host.)
MIXED_RATE_JOBS_S = 2.5
#: Jobs per serve_mixed run (the tail percentile is then p91.7, the
#: highest with ten samples beyond it).
MIXED_JOBS = 120
#: The open loop runs in segments of this many arrivals; between two
#: segments the server drains and the host speed is sampled, so each
#: job's latency is rescaled by the speed measured around its segment.
MIXED_SEGMENT_JOBS = 8
#: serve_mixed latency limit for ``slo_met_ratio``.
MIXED_SLO_S = 0.75
#: Stencil catalogue: larger than the scheduler's 64-entry plan cache,
#: drawn with a Zipf skew, so hot stencils hit and the tail misses and
#: evicts.
CATALOGUE_SIZE = 96
CATALOGUE_ZIPF = 1.0
#: Every catalogue stencil rotates by this many distinct amounts, so the
#: stencils' service times form one tight mode: with 1 job in 4 an HELR,
#: the median request is a stencil near its 67th percentile.
STENCIL_ROTATIONS = 3
MIXED_HELR_SHARE = 4           #: one job in four is an HELR iteration

#: serve_fanout: the three stencils of x in every burst.
FANOUT_STENCILS = (((1, 2), (0.5, 0.25, 0.25)),
                   ((3, 5), (0.4, 0.3, 0.3)),
                   ((4, 7, 9), (0.25, 0.25, 0.25, 0.25)))
FANOUT_SLO_S = 2.0
FANOUT_MIN_BURSTS = -(-FANOUT_MIN_JOBS // 8)
#: A burst's cost in reference seconds (measured: ~0.29).
FANOUT_BURST_S = 0.3

# ----- boot_helr: N=2^9, L=14, dnum=3, 4 slots -----------------------------------

BOOT_PARAMS = dict(n=1 << 9, l=14, dnum=3, scale_bits=40, q0_bits=52,
                   p_bits=52, h=32)
BOOT_SLOTS = 4
BOOT_SINE = SineConfig(k_range=12, degree=63, double_angles=2)
HELR_BOOT = HelrConfig(iterations=2, batch=2, features=2,
                       padded_features=2, sigmoid_depth=1)
#: Inputs arrive at this level (mid-training state), which makes the
#: planner insert exactly one BOOTSTRAP into the two iterations.
BOOT_INPUT_LEVEL = 6
BOOT_SLO_S = 5.0
#: Programs per run: enough that the tail percentile (ten samples beyond
#: it) sits above the median, and that the median of a run is not one
#: host-speed phase (20 programs gave a 33% spread over ten runs).
BOOT_MIN_PROGRAMS = 30
#: A program's cost in reference seconds (measured: ~0.49).
BOOT_PROGRAM_S = 0.5


def request_count(seconds: float, cost_s: float, minimum: int) -> int:
    """Requests a closed loop runs: ``seconds`` of work at ``cost_s`` each."""
    return max(minimum, math.ceil(seconds / cost_s))


@dataclass
class WorkloadRun:
    """What one workload run produced, before metrics are derived."""

    name: str
    setup_s: float                 #: median set-up, reference seconds
    outcomes: list[Outcome]
    wall_s: float                  #: timed wall (sum of timed segments)
    #: the timed wall that throughput divides by, in reference seconds
    #: (open loop: the raw wall, as the schedule sets the pace)
    ref_wall_s: float
    slo_s: float
    workers: int
    #: (start, end) of each timed request group (burst, program, or the
    #: whole open loop)
    windows: list[tuple[float, float]]
    results: list = field(default_factory=list)  #: JobResult or None
    server: FheServer | None = None
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _timed_region(probe):
    return probe.active() if probe is not None else contextlib.nullcontext()


def _max_error(got, ref) -> float:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(ref))))


# ----- programs ----------------------------------------------------------------------

# Program bodies.  Each runs on IR expressions (to build the program)
# and on NumPy vectors (as its reference), with ``rotate`` picking the
# slot rotation of either.

def _expr_rotate(expr, amount):
    return expr.rotate(amount)


def _numpy_rotate(vec, amount):
    return np.roll(vec, -amount)


def _stencil(x, amounts, weights, rotate):
    """``w0*x + sum_i w_i * rot(x, a_i)``: a rotation-heavy query."""
    acc = x * float(weights[0])
    for amount, weight in zip(amounts, weights[1:]):
        acc = acc + rotate(x, int(amount)) * float(weight)
    return acc


def stencil_program(name: str, amounts, weights) -> Program:
    prog = Program(n_slots=SLOTS, name=name)
    prog.output("out", _stencil(prog.input("x"), amounts, weights,
                                _expr_rotate))
    return prog


def stencil_reference(vec, amounts, weights):
    return _stencil(vec, amounts, weights, _numpy_rotate)


def stencil_catalogue() -> list[tuple[str, tuple, tuple]]:
    """Fixed (name, amounts, weights) catalogue, independent of the seed."""
    rng = np.random.default_rng(20220611)
    catalogue = []
    for index in range(CATALOGUE_SIZE):
        amounts = tuple(sorted(int(a) for a in
                               rng.choice(np.arange(1, SLOTS),
                                          STENCIL_ROTATIONS, replace=False)))
        weights = tuple(float(w) for w in np.round(
            rng.uniform(0.1, 0.5, STENCIL_ROTATIONS + 1), 4))
        catalogue.append((f"stencil{index:03d}", amounts, weights))
    return catalogue


def _rotsum(value, rotate):
    """Sum of all 16 slots, replicated: the prefix three programs share."""
    for step in (1, 2, 4, 8):
        value = value + rotate(value, step)
    return value


def _fanout_query(x, w, rotate):
    return (x * w) * 0.5 + x * 0.25


def _fanout_scaled(x, w, rotate):
    return _rotsum(x * w, rotate) * 0.25 + x * 0.5


def _fanout_gated(x, w, rotate):
    return _rotsum(x * w, rotate) * x


def _fanout_squared(x, w, rotate):
    h = _rotsum(x * w, rotate)
    return h * h


def fanout_jobs() -> list[tuple[Program, tuple[str, ...], object]]:
    """The 8 jobs of one burst as (program, input names, reference(x, w))."""

    def two_input(name, body):
        prog = Program(n_slots=SLOTS, name=name)
        x, w = prog.input("x"), prog.input("w")
        prog.output("out", body(x, w, _expr_rotate))
        return (prog, ("x", "w"),
                lambda xv, wv: body(xv, wv, _numpy_rotate))

    query = two_input("fanout-query", _fanout_query)
    jobs = [query, query]                    # identical: CSE
    for index, (amounts, weights) in enumerate(FANOUT_STENCILS):
        jobs.append((stencil_program(f"fanout-stencil{index}", amounts,
                                     weights), ("x",),
                     lambda xv, wv, a=amounts, c=weights:
                     stencil_reference(xv, a, c)))
    jobs += [two_input("fanout-scaled", _fanout_scaled),
             two_input("fanout-gated", _fanout_gated),
             two_input("fanout-squared", _fanout_squared)]
    return jobs


# ----- served set-up -------------------------------------------------------------------

@dataclass
class _Served:
    server: FheServer
    clients: dict[str, TenantClient]


def _build_server(tenants: list[tuple[str, int]], amounts,
                  tracer) -> _Served:
    params = CkksParams.functional(**SERVE_PARAMS)
    server = FheServer(params, ServiceConfig(
        workers=WORKERS, max_batch=8, max_job_seconds=ADMISSION_CEILING_S,
        tracer=tracer))
    clients = {}
    for tenant, key_seed in tenants:
        client = TenantClient(tenant, server.params_blob(), seed=key_seed,
                              ring=server.ring)
        server.open_session(tenant, client.hello_blob())
        server.register_keys(tenant, relin=client.relin_blob(),
                             galois=client.galois_blob(sorted(amounts)))
        clients[tenant] = client
    return _Served(server, clients)


async def _closed_batch(server: FheServer, requests) -> list:
    server.scheduler.start()
    try:
        return await asyncio.gather(*(server.submit(r) for r in requests))
    finally:
        await server.scheduler.stop()


def _setup_served(tenants, amounts, warmup, tracer) -> tuple[_Served, float]:
    """Build + warm a server ``SETUP_REPS`` times; keep the last one.

    ``warmup(served)`` returns pre-encrypted request batches; only
    server construction, key generation, registration and serving the
    warm-up batches are timed.
    """
    times = []
    served = None
    for _ in range(SETUP_REPS):
        if served is not None:
            served.server.shutdown()
            served = None
            gc.collect()
        before = reference_s()
        t0 = time.perf_counter()
        served = _build_server(tenants, amounts, tracer)
        build_s = time.perf_counter() - t0
        batches = warmup(served)          # encryption: not timed
        t0 = time.perf_counter()
        for batch in batches:
            asyncio.run(_closed_batch(served.server, batch))
        wall = build_s + time.perf_counter() - t0
        times.append(wall * speed_factor(before, reference_s()))
    return served, median(times)


def _verify_served(run: WorkloadRun, expected) -> None:
    """Decrypt every output and mark wrong or failed jobs."""
    for index, (outcome, result) in enumerate(zip(run.outcomes,
                                                  run.results)):
        if result is None:
            continue
        client, refs = expected[index]
        worst = 0.0
        for name, ref in refs.items():
            worst = max(worst, _max_error(
                client.decrypt_blob(result.outputs[name]), ref))
        outcome.error_bits = precision_bits(worst)
        if not worst <= TOLERANCE:
            outcome.ok = False
            run.problems.append(
                f"job {index} ({result.program_name}): max |error| "
                f"{worst:.3e} > {TOLERANCE:.3e}")


# ----- serve_mixed ---------------------------------------------------------------------

def run_serve_mixed(seed: int, seconds: float, probe=None) -> WorkloadRun:
    tracer = probe.tracer if probe is not None else None
    rng = np.random.default_rng(seed)
    tenants = [("alice", 1000 + seed), ("bob", 2000 + seed)]
    catalogue = stencil_catalogue()
    helr = build_helr_program(HELR_SERVED, SLOTS)
    amounts = set(range(1, SLOTS))
    stencils = {name: stencil_program(name, a, w)
                for name, a, w in catalogue}

    def warmup(served):
        batches = []
        for tenant, client in served.clients.items():
            batch = [JobRequest(tenant, helr, {
                name: client.encrypt_blob(rng.uniform(-0.3, 0.3, SLOTS))
                for name in helr.inputs})]
            for name, _, _ in catalogue[:3]:
                batch.append(JobRequest(tenant, stencils[name], {
                    "x": client.encrypt_blob(rng.uniform(-0.5, 0.5, SLOTS))}))
            batches.append(batch)
        return batches

    served, setup_s = _setup_served(tenants, amounts, warmup, tracer)
    server, clients = served.server, served.clients

    # Arrival schedule: in every segment a Poisson process conditioned
    # on its count, so every seed offers the same load over the same span.
    n_segments = -(-max(MIXED_JOBS, round(MIXED_RATE_JOBS_S * seconds))
                   // MIXED_SEGMENT_JOBS)
    n_jobs = n_segments * MIXED_SEGMENT_JOBS
    segment_s = MIXED_SEGMENT_JOBS / MIXED_RATE_JOBS_S
    offsets = np.sort(rng.uniform(0.0, segment_s,
                                  (n_segments, MIXED_SEGMENT_JOBS)), axis=1)
    # Every segment holds the same mix: one job in four an HELR, half
    # the jobs from each tenant.
    segment_slots = np.arange(MIXED_SEGMENT_JOBS)
    helr_slots = MIXED_SEGMENT_JOBS // MIXED_HELR_SHARE
    is_helr = np.concatenate([rng.permutation(segment_slots) < helr_slots
                              for _ in range(n_segments)])
    tenant_of = np.concatenate([rng.permutation(segment_slots % 2)
                                for _ in range(n_segments)])
    zipf = 1.0 / np.arange(1, CATALOGUE_SIZE + 1) ** CATALOGUE_ZIPF
    picks = rng.choice(CATALOGUE_SIZE, size=n_jobs, p=zipf / zipf.sum())

    requests, expected = [], []
    for index in range(n_jobs):
        tenant = tenants[tenant_of[index]][0]
        client = clients[tenant]
        if is_helr[index]:
            vecs = {name: rng.uniform(-0.3, 0.3, SLOTS)
                    for name in helr.inputs}
            prog = helr
            refs = helr_program_reference(vecs, HELR_SERVED, SLOTS)
        else:
            name, amts, weights = catalogue[picks[index]]
            vecs = {"x": rng.uniform(-0.5, 0.5, SLOTS)}
            prog = stencils[name]
            refs = {"out": stencil_reference(vecs["x"], amts, weights)}
        requests.append(JobRequest(tenant, prog, {
            name: client.encrypt_blob(vec) for name, vec in vecs.items()}))
        expected.append((client, refs))

    outcomes: list[Outcome | None] = [None] * n_jobs
    results: list = [None] * n_jobs
    windows: list[tuple[float, float]] = []
    errors: list[str] = []

    async def one(index: int, due: float) -> None:
        sent = time.perf_counter()
        request = requests[index]
        with request_span(tracer, "bench.job", tenant=request.tenant,
                          program=request.program.name):
            try:
                results[index] = await server.submit(request)
                ok = True
            except Exception as exc:  # rejected or failed: counted
                errors.append(f"{type(exc).__name__}: {exc}")
                ok = False
        outcomes[index] = Outcome(scheduled=due, sent=sent,
                                  done=time.perf_counter(), ok=ok)

    async def segment(first: int, segment_offsets) -> None:
        start = time.perf_counter()
        tasks = []
        for index, offset in enumerate(segment_offsets, start=first):
            due = start + float(offset)
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(one(index, due)))
        await asyncio.gather(*tasks)
        windows.append((start, max(outcomes[i].done for i in
                                   range(first, first + len(tasks)))))

    async def drive() -> None:
        server.scheduler.start()
        try:
            before = reference_s()
            for number, segment_offsets in enumerate(offsets):
                first = number * MIXED_SEGMENT_JOBS
                await segment(first, segment_offsets)
                after = reference_s()       # drained: between segments
                factor = speed_factor(before, after)
                for outcome in outcomes[first:first + MIXED_SEGMENT_JOBS]:
                    outcome.speed = factor
                before = after
        finally:
            await server.scheduler.stop()

    with _timed_region(probe):
        asyncio.run(drive())
    wall_s = sum(end - start for start, end in windows)
    # Arrivals are due in wall seconds, so the schedule, not the host,
    # sets the open loop's throughput: it stays in wall seconds.
    run = WorkloadRun(name="serve_mixed", setup_s=setup_s,
                      outcomes=outcomes, wall_s=wall_s, ref_wall_s=wall_s,
                      slo_s=MIXED_SLO_S, workers=WORKERS,
                      windows=windows, results=results,
                      server=server, notes=errors[:5])
    _verify_served(run, expected)
    return run


# ----- serve_fanout --------------------------------------------------------------------

def run_serve_fanout(seed: int, seconds: float, probe=None) -> WorkloadRun:
    tracer = probe.tracer if probe is not None else None
    rng = np.random.default_rng(seed)
    tenant = "fanout"
    jobs = fanout_jobs()
    amounts = set()
    for prog, _, _ in jobs:
        amounts |= prog.required_rotations()

    def burst_requests(client):
        x = rng.uniform(-0.5, 0.5, SLOTS)
        w = rng.uniform(-0.5, 0.5, SLOTS)
        blobs = {"x": client.encrypt_blob(x), "w": client.encrypt_blob(w)}
        requests = [JobRequest(tenant, prog,
                               {name: blobs[name] for name in names})
                    for prog, names, _ in jobs]
        refs = [{"out": reference(x, w)} for _, _, reference in jobs]
        return requests, refs

    def warmup(served):
        return [burst_requests(served.clients[tenant])[0]
                for _ in range(2)]

    served, setup_s = _setup_served([(tenant, 3000 + seed)], amounts,
                                    warmup, tracer)
    server, client = served.server, served.clients[tenant]

    outcomes, results, expected, windows = [], [], [], []
    errors: list[str] = []
    timed = ref_timed = 0.0

    async def burst(requests) -> tuple[float, list, list]:
        start = time.perf_counter()
        done = [0.0] * len(requests)
        got = [None] * len(requests)

        async def one(index):
            try:
                got[index] = await server.submit(requests[index])
            except Exception as exc:  # rejected or failed: counted
                errors.append(f"{type(exc).__name__}: {exc}")
            done[index] = time.perf_counter()

        with request_span(tracer, "bench.burst", jobs=len(requests)):
            await asyncio.gather(*(one(i) for i in range(len(requests))))
        return start, done, got

    async def drive():
        nonlocal timed, ref_timed
        server.scheduler.start()
        try:
            before = reference_s()
            for _ in range(request_count(seconds, FANOUT_BURST_S,
                                         FANOUT_MIN_BURSTS)):
                requests, refs = burst_requests(client)   # not timed
                start, done, got = await burst(requests)
                end = max(done)
                after = reference_s()
                factor = speed_factor(before, after)
                before = after
                timed += end - start
                ref_timed += (end - start) * factor
                windows.append((start, end))
                for index, result in enumerate(got):
                    outcomes.append(Outcome(scheduled=start, sent=start,
                                            done=done[index],
                                            ok=result is not None,
                                            speed=factor))
                    results.append(result)
                    expected.append((client, refs[index]))
        finally:
            await server.scheduler.stop()

    with _timed_region(probe):
        asyncio.run(drive())
    run = WorkloadRun(name="serve_fanout", setup_s=setup_s,
                      outcomes=outcomes, wall_s=timed, ref_wall_s=ref_timed,
                      slo_s=FANOUT_SLO_S,
                      workers=WORKERS, windows=windows, results=results,
                      server=server, notes=errors[:5])
    _verify_served(run, expected)
    return run


# ----- boot_helr -----------------------------------------------------------------------

@dataclass
class _Boot:
    keygen: KeyGenerator
    evaluator: Evaluator
    bootstrapper: Bootstrapper
    encoder: Encoder
    plan: object
    note: str


def _build_boot(key_seed: int, prog: Program) -> _Boot:
    """Ring, keys, the measured bootstrap level and the plan."""
    ring = RingContext(CkksParams.functional(**BOOT_PARAMS))
    keygen = KeyGenerator(ring, seed=key_seed)
    evaluator = Evaluator(ring)
    config = BootstrapConfig(n_slots=BOOT_SLOTS, sine=BOOT_SINE)
    bootstrapper = Bootstrapper(evaluator, config)
    bootstrapper.generate_keys(keygen,
                               extra_rotations=prog.required_rotations())
    encoder = Encoder(ring)
    # Plan with the level a bootstrap really lands at: planning with
    # max_level - levels_consumed() makes execute() reject the result.
    probe = _encrypt(keygen, encoder, evaluator, np.full(BOOT_SLOTS, 0.1),
                     level=0)
    landed = bootstrapper.bootstrap(probe).level
    predicted = ring.max_level - config.levels_consumed()
    plan = plan_program(prog, PlannerConfig.from_ring(
        ring, bootstrap_level=landed, input_level=BOOT_INPUT_LEVEL))
    boots = sum(1 for nid in plan.order
                if plan.nodes[nid].op is OpCode.BOOTSTRAP)
    if boots != 1:
        raise RuntimeError(f"expected one planned BOOTSTRAP, got {boots}")
    note = (f"bootstrap lands at level {landed}; max_level - "
            f"levels_consumed() = {predicted}")
    return _Boot(keygen, evaluator, bootstrapper, encoder, plan, note)


def _encrypt(keygen, encoder, evaluator, vec, level: int):
    scale = 2.0 ** BOOT_PARAMS["scale_bits"]
    ct = keygen.encrypt_symmetric(
        encoder.encode(np.asarray(vec) + 0j, scale).poly, scale, BOOT_SLOTS)
    return evaluator.drop_to_level(ct, level)


def run_boot_helr(seed: int, seconds: float, probe=None) -> WorkloadRun:
    tracer = probe.tracer if probe is not None else None
    rng = np.random.default_rng(seed)
    prog = build_helr_program(HELR_BOOT, BOOT_SLOTS)

    def draw_inputs(boot):
        vecs = {name: rng.uniform(-0.3, 0.3, BOOT_SLOTS)
                for name in prog.inputs}
        cts = {name: _encrypt(boot.keygen, boot.encoder, boot.evaluator,
                              vec, BOOT_INPUT_LEVEL)
               for name, vec in vecs.items()}
        return vecs, cts

    def run_program(boot, cts):
        return rt_executor.execute(boot.plan, boot.evaluator, cts,
                                   bootstrapper=boot.bootstrapper)

    times = []
    boot = None
    for rep in range(SETUP_REPS):
        boot = None
        gc.collect()
        before = reference_s()
        t0 = time.perf_counter()
        boot = _build_boot(4000 + seed * SETUP_REPS + rep, prog)
        build_s = time.perf_counter() - t0
        _, cts = draw_inputs(boot)          # encryption: not timed
        t0 = time.perf_counter()
        run_program(boot, cts)              # warm-up: twiddle planes etc.
        wall = build_s + time.perf_counter() - t0
        times.append(wall * speed_factor(before, reference_s()))

    outcomes, outputs, expected, windows = [], [], [], []
    timed = ref_timed = 0.0
    with _timed_region(probe):
        before = reference_s()
        for _ in range(request_count(seconds, BOOT_PROGRAM_S,
                                     BOOT_MIN_PROGRAMS)):
            vecs, cts = draw_inputs(boot)                  # not timed
            start = time.perf_counter()
            with request_span(tracer, "bench.program"):
                outputs.append(run_program(boot, cts))
            end = time.perf_counter()
            after = reference_s()
            factor = speed_factor(before, after)
            before = after
            timed += end - start
            ref_timed += (end - start) * factor
            windows.append((start, end))
            outcomes.append(Outcome(scheduled=start, sent=start, done=end,
                                    speed=factor))
            expected.append(helr_program_reference(vecs, HELR_BOOT,
                                                   BOOT_SLOTS))

    run = WorkloadRun(name="boot_helr", setup_s=median(times),
                      outcomes=outcomes, wall_s=timed, ref_wall_s=ref_timed,
                      slo_s=BOOT_SLO_S,
                      workers=1, windows=windows, notes=[boot.note])
    for index, (outcome, got, refs) in enumerate(zip(outcomes, outputs,
                                                     expected)):
        worst = max(_max_error(boot.evaluator.decrypt_to_message(
            got[name], boot.keygen.secret), ref)
            for name, ref in refs.items())
        outcome.error_bits = precision_bits(worst)
        if not worst <= TOLERANCE:
            outcome.ok = False
            run.problems.append(f"program {index}: max |error| "
                                f"{worst:.3e} > {TOLERANCE:.3e}")
    return run


WORKLOADS = {"serve_mixed": run_serve_mixed,
             "serve_fanout": run_serve_fanout,
             "boot_helr": run_boot_helr}
