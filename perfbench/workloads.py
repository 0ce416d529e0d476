"""The three benchmark workloads: ``search``, ``replay`` and ``service``.

Every workload does *fixed work* per run: its inputs are a pure
function of ``(seed, seconds)`` — ``seconds`` only sizes the input —
never of how fast the machine is.  Each runs single-process and
single-threaded.  See ``NOTES.md`` for why each was chosen and which
layers it bypasses.

A workload exposes ``prepare(seed, seconds)`` (input generation),
``warm()`` (one small throwaway op of each kind) and
``run(inputs, check, tracer, probe)``, which returns a :class:`Result`.
With ``check=True`` every output is verified; a failed check counts its
op as failed.  With a ``tracer`` the benchmark's own per-op root spans
are recorded around each op.  With a ``probe`` (a
:class:`stats.SpeedProbe`) the machine's speed is sampled between ops,
never inside a timed region, and every timing is reported at the
reference speed (see ``NOTES.md``); without one, as measured.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import random
import shutil
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from repro import heuristics
from repro.generator.costs import assign_costs
from repro.generator.daggen import random_topology
from repro.platform import CellPlatform
from repro.runtime import (
    DEFAULT_BUILDERS,
    AppArrival,
    AppDeparture,
    DurableScheduler,
    FaultInjector,
    OnlineScheduler,
    ScenarioGenerator,
    SchedulerService,
    play,
    scheduler_from_config,
    solo_period_bound,
    validate_timeline,
)
from repro.steady_state.delta import DeltaAnalyzer
from repro.steady_state.mapping import Mapping
from repro.steady_state.throughput import analyze

from stats import (
    as_measured,
    digest,
    geomean,
    median,
    percentile,
    report_decisions,
    tail_percentile,
)

PLATFORM = CellPlatform.qs22()


@dataclass
class Result:
    """What one pass of a workload measured and checked."""

    #: Per-op latencies in seconds (the op_ms.* sample), at the
    #: reference speed when a probe ran.
    op_s: List[float]
    #: Ops completed per second of op time, likewise.
    ops_per_s: float
    attempted: int
    failed: int
    digest: str
    #: Workload-defined end-to-end values: ``speedup.geomean``,
    #: ``acceptance_rate``, ``sustained_ops_per_s``, ``recover_s``.
    values: Dict[str, float] = field(default_factory=dict)
    #: Sample count behind each entry of ``values``.
    samples: Dict[str, int] = field(default_factory=dict)
    #: Per-layer values only this workload can observe.
    layer: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    lines: List[str] = field(default_factory=list)
    #: Op ids (tracer) whose spans make up the op_s sample.
    op_ids: Optional[set] = None
    #: The value as measured of every metric reported at the reference
    #: speed.
    measured: Dict[str, float] = field(default_factory=dict)

    @property
    def ok_share(self) -> float:
        return (self.attempted - self.failed) / self.attempted


def _traced(tracer, name, fn, *args):
    if tracer is None:
        return fn(*args)
    return tracer.span(name, "op", fn, *args)


# ---------------------------------------------------------------------- #
# search: closed loop of offline solves (default buffer model)

#: Solves per second of run length (a 2-vCPU Xeon VM under the numpy
#: backend solves 13–19 per second, so a run measures 16–23 s of work).
JOBS_PER_SECOND = 10
SEARCH_STRATEGIES = (
    "tabu_search",
    "simulated_annealing",
    "genetic_algorithm",
    "local_search",
)
#: Graph sizes cycled through in order, so every seed solves the same
#: size mix and only shapes, costs and strategy seeds vary.
SEARCH_SIZES = (16, 24, 32, 40, 48)
#: The paper's CCR range (§6.2).
CCR_RANGE = (0.775, 4.6)


@dataclass(frozen=True)
class Job:
    index: int
    strategy: str
    graph: object
    seed: int


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> List[float]:
    """One draw per equal-width stratum of [lo, hi], shuffled."""
    values = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(values)
    return values


def make_jobs(seed: int, n_jobs: int) -> List[Job]:
    """A seeded job list whose parameter mix is the same for every seed.

    Strategies and sizes cycle in a fixed order; shape parameters and
    the log-CCR are stratified over their ranges, so seeds differ only
    in where each value falls within its stratum, which value meets which
    job, and in the random topologies, costs and strategy seeds.
    """
    rng = random.Random(seed)
    lo, hi = (math.log(c) for c in CCR_RANGE)
    fat = _stratified(rng, n_jobs, 0.2, 0.6)
    regularity = _stratified(rng, n_jobs, 0.3, 0.9)
    density = _stratified(rng, n_jobs, 0.15, 0.5)
    log_ccr = _stratified(rng, n_jobs, lo, hi)
    jobs = []
    for index in range(n_jobs):
        strategy = SEARCH_STRATEGIES[index % len(SEARCH_STRATEGIES)]
        n_tasks = SEARCH_SIZES[(index // len(SEARCH_STRATEGIES)) % len(SEARCH_SIZES)]
        ccr = math.exp(log_ccr[index])
        while True:
            graph_seed = rng.randrange(2**31)
            topology = random_topology(
                n_tasks,
                fat=fat[index],
                regularity=regularity[index],
                density=density[index],
                jump=1 + index % 3,
                seed=graph_seed,
            )
            graph = assign_costs(
                topology, ccr=ccr, seed=graph_seed, name=f"job{index}"
            )
            # local_search refines its start and keeps it feasible; it
            # does not promise to repair an infeasible GREEDYCPU start,
            # so its jobs use graphs where that start is feasible.
            if strategy != "local_search" or analyze(
                heuristics.greedy_cpu(graph, PLATFORM)
            ).feasible:
                break
        jobs.append(Job(index, strategy, graph, rng.randrange(2**31)))
    return jobs


def solve(job: Job) -> Mapping:
    if job.strategy == "local_search":
        return heuristics.local_search(
            heuristics.greedy_cpu(job.graph, PLATFORM)
        )
    strategy = getattr(heuristics, job.strategy)
    return strategy(job.graph, PLATFORM, seed=job.seed)


class Search:
    name = "search"

    def prepare(self, seed: int, seconds: int) -> List[Job]:
        return make_jobs(seed, max(len(SEARCH_STRATEGIES), JOBS_PER_SECOND * seconds))

    def warm(self) -> None:
        for job in make_jobs(0, len(SEARCH_STRATEGIES)):
            solve(job)

    def run(
        self, jobs: List[Job], check: bool = True, tracer=None, probe=None
    ) -> Result:
        scale = probe.scaled if probe is not None else as_measured
        op_s: List[float] = []
        starts: List[float] = []
        mappings: List[Optional[Mapping]] = []
        errors: List[str] = []
        reloads = []
        chunk = max(1, len(jobs) // RELOAD_CHUNKS)
        for job in jobs:
            if tracer is not None:
                tracer.op = job.index
            if probe is not None:
                probe.maybe_sample()
            start = perf_counter()
            try:
                mapping = _traced(tracer, "op.solve", solve, job)
            except Exception:  # an op that raises counts as failed
                mapping = None
                errors.append(f"job {job.index}: {traceback.format_exc()}")
            op_s.append(perf_counter() - start)
            starts.append(start)
            mappings.append(mapping)
            if check and (job.index + 1) % chunk == 0:
                # Time reloading this chunk now, not all at the end, so
                # recover_s averages over the run like the other timings.
                done = zip(jobs[job.index + 1 - chunk :], mappings[-chunk:])
                reloads.append(
                    reload_all([(j.graph, m.to_json()) for j, m in done if m], probe)
                )
        if tracer is not None:
            tracer.op = None
        if probe is not None:
            probe.sample()
        scaled = [scale(t, s) for t, s in zip(starts, op_s)]
        decisions = [
            [job.strategy, sorted(m.to_dict().items()) if m else None]
            for job, m in zip(jobs, mappings)
        ]
        result = Result(
            op_s=scaled,
            ops_per_s=len(jobs) / sum(scaled),
            attempted=len(jobs),
            failed=0,
            digest=digest(decisions),
            errors=errors,
            op_ids=set(range(len(jobs))),
            layer={"op_wall_s": sum(op_s)},
            measured=op_measures(op_s),
        )
        bad = {i for i, m in enumerate(mappings) if m is None}
        if check:
            speedups = []
            for job, mapping in zip(jobs, mappings):
                if mapping is None:
                    continue
                verdict = check_mapping(mapping)
                if isinstance(verdict, str):
                    bad.add(job.index)
                    errors.append(f"job {job.index} ({job.strategy}): {verdict}")
                    continue
                speedups.append(verdict)
            if speedups:
                result.values["speedup.geomean"] = geomean(speedups)
                result.values["acceptance_rate"] = sum(
                    s > 1.0 for s in speedups
                ) / len(speedups)
                result.values["recover_s"] = sum(
                    median([scale(t, s) for t, s in times]) for times in reloads
                )
                result.measured["recover_s"] = sum(
                    median([s for _t, s in times]) for times in reloads
                )
                result.samples.update(
                    {
                        "speedup.geomean": len(speedups),
                        "acceptance_rate": len(speedups),
                        "recover_s": len(jobs) // chunk * chunk * RELOAD_REPEATS,
                    }
                )
        result.failed = len(bad)
        # A closed loop offers exactly what it completes: no backlog.
        result.values["sustained_ops_per_s"] = result.ops_per_s
        result.samples["sustained_ops_per_s"] = len(jobs)
        result.measured["sustained_ops_per_s"] = result.measured["ops_per_s"]
        return result


def op_measures(op_s: List[float]) -> Dict[str, float]:
    """The closed-loop op metrics of ``op_s`` (seconds, as measured)."""
    return {
        "ops_per_s": len(op_s) / sum(op_s),
        "op_ms.p50": 1e3 * median(op_s),
        "op_ms.tail": 1e3 * percentile(op_s, tail_percentile(len(op_s))),
    }


#: Slices the reload timing behind search's recover_s is taken in.
RELOAD_CHUNKS = 5


#: Each slice is reloaded this many times and the median kept.
RELOAD_REPEATS = 3


def reload_all(saved, probe=None) -> List[tuple]:
    """(start, seconds) of each reload of every saved mapping, each
    mapping re-evaluated."""
    times = []
    for _ in range(RELOAD_REPEATS):
        gc.collect()
        if probe is not None:
            probe.sample(1)
        start = perf_counter()
        for graph, text in saved:
            analyze(Mapping.from_json(graph, PLATFORM, text))
        times.append((start, perf_counter() - start))
    return times


def check_mapping(mapping: Mapping):
    """Speed-up over all-on-PPE, or a string naming the failed check.

    The mapping must be feasible under a fresh ``analyze()``, and the
    incremental evaluator must read the identical period for it.
    """
    analysis = analyze(mapping)
    if not analysis.feasible:
        return f"infeasible mapping ({len(analysis.violations)} violations)"
    incremental = DeltaAnalyzer(mapping).period()
    if incremental != analysis.period:
        return f"period {incremental!r} != analyze() {analysis.period!r}"
    reference = analyze(
        Mapping.all_on_ppe(mapping.graph, mapping.platform)
    )
    return reference.period / analysis.period


# ---------------------------------------------------------------------- #
# replay: closed loop of online events, merged buffer model

#: Timeline events per second of run length, split over segments.
EVENTS_PER_SECOND = 22
#: Independent timelines per run, so one unusually light or heavy
#: timeline does not set the whole run.
REPLAY_SEGMENTS = 16
MERGED = {"elide_local_comm": True, "merge_same_pe_buffers": True}


def fault_timeline(seed: int, n_events: int, load: float, failures: int):
    """A seeded bursty timeline with correlated failures and
    cost-perturbation windows layered on top."""
    base = ScenarioGenerator(
        PLATFORM,
        seed=seed,
        load=load,
        n_failures=failures,
        arrival_pattern="bursty",
    ).generate(n_events)
    faults = max(1, n_events // 50)
    return FaultInjector(PLATFORM, seed=seed).inject(
        base, n_bursts=faults, n_perturbations=faults
    )


#: ``ScenarioGenerator``'s defaults, which ``balance`` keeps: the share
#: of arrivals with a target period, the range of its slack over the
#: solo bound, and the mean residence time.
TARGET_SHARE = 0.7
TARGET_SLACK = (2.0, 8.0)
MEAN_SERVICE = 40.0


def balance(segments, rng: random.Random):
    """The timelines ``segments`` with a balanced application mix.

    ``ScenarioGenerator`` draws each arrival's application, whether it
    has a target period, and how long it stays independently, so one
    seed's timelines hold about 10% more video pipelines or targetless
    (always admitted) applications than another's, and the run costs
    20–35% more.  Here, over all arrivals of all segments, applications
    are dealt from a shuffled deck with equal counts, exactly
    ``TARGET_SHARE`` have a target with its slack stratified over
    ``TARGET_SLACK``, and residence times are stratified exponential
    quantiles with mean ``MEAN_SERVICE``.  Arrival times, names,
    weights and every fault event are kept.
    """
    # Names are unique within a segment only.
    arrivals = [
        (k, e)
        for k, seg in enumerate(segments)
        for e in seg
        if isinstance(e, AppArrival)
    ]
    kinds = sorted(DEFAULT_BUILDERS)
    deck = [kinds[j % len(kinds)] for j in range(len(arrivals))]
    rng.shuffle(deck)
    n_target = round(TARGET_SHARE * len(arrivals))
    slack = _stratified(rng, n_target, *TARGET_SLACK)
    slack += [None] * (len(arrivals) - n_target)
    rng.shuffle(slack)
    stay = [
        -MEAN_SERVICE * math.log(1.0 - u)
        for u in _stratified(rng, len(arrivals), 0.0, 1.0)
    ]
    changed = {}
    for (k, event), kind, factor, residence in zip(arrivals, deck, slack, stay):
        graph = DEFAULT_BUILDERS[kind]()
        target = None if factor is None else solo_period_bound(graph) * factor
        changed[k, event.name] = (
            replace(event, graph=graph, app_kind=kind, target_period=target),
            event.time + residence,
        )
    out = []
    for k, seg in enumerate(segments):
        events = []
        for event in seg:
            if isinstance(event, AppArrival):
                event = changed[k, event.name][0]
            elif isinstance(event, AppDeparture):
                event = replace(event, time=changed[k, event.name][1])
            events.append(event)
        events.sort(key=lambda e: e.time)
        out.append(validate_timeline(events))
    return out


def concat_timeline(segments):
    """Play ``segments`` back to back as one timeline.

    Each segment is shifted past the previous one's last event and its
    applications are renamed per segment; every segment's applications
    depart within it, so each starts from an empty platform.
    """
    events = []
    offset = 0.0
    for k, segment in enumerate(segments):
        for event in segment:
            changes = {"time": event.time + offset}
            if isinstance(event, (AppArrival, AppDeparture)):
                changes["name"] = f"s{k}-{event.name}"
            events.append(replace(event, **changes))
        offset = events[-1].time + 1.0
    return validate_timeline(events)


def replay_scheduler() -> OnlineScheduler:
    return OnlineScheduler(
        PLATFORM, migration_budget=3, retry_limit=2, **MERGED
    )


class Replay:
    name = "replay"

    def prepare(self, seed: int, seconds: int):
        rng = random.Random(seed)
        per_segment = max(8, EVENTS_PER_SECOND * seconds // REPLAY_SEGMENTS)
        return balance(
            [
                fault_timeline(rng.randrange(2**31), per_segment, 3.0, 2)
                for _ in range(REPLAY_SEGMENTS)
            ],
            rng,
        )

    def warm(self) -> None:
        replay_scheduler().run(fault_timeline(0, 12, 3.0, 1))

    def run(self, segments, check: bool = True, tracer=None, probe=None) -> Result:
        scale = probe.scaled if probe is not None else as_measured
        op_s: List[float] = []
        starts: List[float] = []
        errors: List[str] = []
        bad = 0
        decisions = []
        arrivals = accepted = retries = 0
        speedups: List[float] = []
        restores: List[float] = []
        for events in segments:
            scheduler = replay_scheduler()
            saved = []
            save_at = {
                (k + 1) * len(events) // (RESTORE_POINTS + 1)
                for k in range(RESTORE_POINTS)
            }
            for index, event in enumerate(events):
                op = len(op_s)
                if tracer is not None:
                    tracer.op = op
                if probe is not None:
                    probe.maybe_sample()
                start = perf_counter()
                try:
                    record = _traced(
                        tracer, "op.event", scheduler.process, event
                    )
                except Exception:
                    bad += len(events)  # the segment is lost
                    errors.append(f"event {op}: {traceback.format_exc()}")
                    break
                op_s.append(perf_counter() - start)
                starts.append(start)
                if check:
                    verdict = check_committed(scheduler, record)
                    if isinstance(verdict, str):
                        bad += 1
                        errors.append(f"event {op}: {verdict}")
                    elif verdict is not None:
                        speedups.append(verdict)
                    if index in save_at:
                        saved.append(saved_state(scheduler))
            if tracer is not None:
                tracer.op = None
            report = scheduler.report()
            decisions.append(report_decisions(report))
            arrivals += report.n_arrivals
            retries += report.n_retries
            accepted += report.n_accepted
            if not check:
                continue
            if scheduler.state is not None:
                snap = scheduler.snapshot()
                if snap != analyze(scheduler.mapping(), **MERGED):
                    bad += 1
                    errors.append("final snapshot() differs from analyze()")
            restores.extend(time_restores(saved, errors, probe))
        if probe is not None:
            probe.sample()
        scaled = [scale(t, s) for t, s in zip(starts, op_s)]
        attempted = sum(len(events) for events in segments)
        result = Result(
            op_s=scaled,
            ops_per_s=len(scaled) / sum(scaled),
            attempted=attempted,
            failed=min(bad, attempted),
            digest=digest(decisions),
            errors=errors,
            op_ids=set(range(len(op_s))),
            layer={"op_wall_s": sum(op_s), "scheduler.retries": retries},
            measured=op_measures(op_s),
        )
        result.values["acceptance_rate"] = accepted / max(1, arrivals)
        result.samples["acceptance_rate"] = arrivals
        result.values["sustained_ops_per_s"] = result.ops_per_s
        result.samples["sustained_ops_per_s"] = len(op_s)
        result.measured["sustained_ops_per_s"] = result.measured["ops_per_s"]
        if speedups:
            result.values["speedup.geomean"] = geomean(speedups)
            result.samples["speedup.geomean"] = len(speedups)
        if restores:
            result.values["recover_s"] = mean_of_medians(restores, scale)
            result.measured["recover_s"] = mean_of_medians(restores, as_measured)
            result.samples["recover_s"] = len(restores) * RESTORE_REPEATS
        return result


def check_committed(scheduler: OnlineScheduler, record):
    """Check the committed state after one event.

    Returns ``None`` when nothing is resident, the committed mapping's
    speed-up over all-on-PPE when it is feasible and its period equals a
    fresh ``analyze()``, and a string naming the failed check otherwise.
    """
    mapping = scheduler.mapping()
    if mapping is None:
        return None
    flags = {
        "elide_local_comm": scheduler.elide_local_comm,
        "merge_same_pe_buffers": scheduler.merge_same_pe_buffers,
    }
    analysis = analyze(mapping, **flags)
    if not analysis.feasible or not record.feasible:
        return "committed state is infeasible"
    if analysis.period != record.period:
        return f"period {record.period!r} != analyze() {analysis.period!r}"
    reference = analyze(
        Mapping.all_on_ppe(mapping.graph, mapping.platform), **flags
    )
    return reference.period / analysis.period


#: Mid-segment states each segment saves, and how often each is
#: restored (the median is kept).
RESTORE_POINTS = 3
RESTORE_REPEATS = 5


def saved_state(scheduler: OnlineScheduler):
    """What ``time_restores`` rebuilds: config, serialized state, report."""
    return (
        scheduler.config(),
        json.dumps(scheduler.snapshot_state()),
        report_decisions(scheduler.report()),
    )


def time_restores(saved, errors: List[str], probe=None) -> List[List[tuple]]:
    """(start, seconds) of each rebuild of a scheduler from each saved
    state, grouped by state."""
    groups = []
    for config, text, expected in saved:
        times = []
        for _ in range(RESTORE_REPEATS):
            gc.collect()
            if probe is not None:
                probe.sample(1)
            start = perf_counter()
            restored = scheduler_from_config(config)
            restored.restore_state(json.loads(text))
            times.append((start, perf_counter() - start))
            if report_decisions(restored.report()) != expected:
                errors.append("restored state differs from the original")
        groups.append(times)
    return groups


def mean_of_medians(groups: List[List[tuple]], scale) -> float:
    """Mean over groups of the median scaled (start, seconds) region."""
    return sum(median([scale(t, s) for t, s in g]) for g in groups) / len(groups)


# ---------------------------------------------------------------------- #
# service: durable SchedulerService — burst, open-loop ladder, recovery

#: Timeline events per second of run length.
SERVICE_EVENTS_PER_SECOND = 6
#: Independent scenario segments played back to back in one timeline,
#: so one seed's unusually light or heavy segment does not set the run.
SERVICE_SEGMENTS = 10
CHECKPOINT_EVERY = 8
ADMISSION_BATCH = 4
#: Bursts last about a second each, so several are run, in three groups
#: spread over the run, and the median kept.
BURST_REPEATS = 6
#: Open-loop rate (events/s) the op_ms.* metrics are measured at, well
#: below capacity (about a sixth of it).
REFERENCE_RATE = 40.0
#: Rungs of the ladder above the reference rate lie on the grid
#: ``LADDER_START * LADDER_STEP**k`` events/s at the reference speed,
#: about 9% apart.  The walk starts at the rung just below ``WALK_FROM``
#: of the burst completion rate (a saturated service, so above every
#: rate it can sustain) and climbs to the first rung that misses the
#: limit.  From there ``STAIRCASE_STEPS`` more steps each go one rung
#: down after a miss and one up after a step that met the limit, so
#: they hover around the rate met half the time.
LADDER_START = 120.0
LADDER_STEP = 2.0 ** (1 / 8)
LADDER_TOP = 3840.0
WALK_FROM = 0.75
STAIRCASE_STEPS = 10
#: Latency limit (ms) on the tail percentile for sustained_ops_per_s.
LATENCY_LIMIT_MS = 250.0
#: In the reference step, a speed sample is taken this long before a
#: send when the service is idle.
IDLE_SAMPLE_S = 0.004
#: A ladder step's speed factor is the mean over the samples of the
#: last ``LADDER_FACTOR_S`` seconds, ``LADDER_PROBE_PASSES`` of them
#: taken just before the step: the machine flips between a fast and a
#: slow state many times during a step, so the step runs at about the
#: recent average, not at the state of the moment it starts.
LADDER_FACTOR_S = 3.0
LADDER_PROBE_PASSES = 10
#: Backlog growth (queued requests per request sent) above which a
#: step's backlog counts as growing.
GROWTH_SLOPE = 0.05
#: Crash images, spread over the timeline; each is recovered once after
#: each burst of the first group, after the reference-rate step
#: and at the end.
CRASH_POINTS = 12
#: Journal records past the last checkpoint in each crash image.
RECOVER_TAIL = 5


def service_scheduler() -> OnlineScheduler:
    return OnlineScheduler(PLATFORM, migration_budget=3, retry_limit=1)


def durable_service(workdir: Path, tag: str, max_queue: int):
    journal = workdir / f"{tag}.journal.jsonl"
    checkpoint = workdir / f"{tag}.checkpoint.json"
    for path in (journal, checkpoint):
        path.unlink(missing_ok=True)
    return SchedulerService(
        service_scheduler(),
        admission_batch=ADMISSION_BATCH,
        max_queue=max_queue,
        high_watermark=max_queue,
        journal_path=journal,
        checkpoint_path=checkpoint,
        checkpoint_every=CHECKPOINT_EVERY,
        fsync=True,
    )


class LoopSampler:
    """Samples the machine's speed every ``probe.EVERY_S`` from a task
    of its own while a service is busy.

    The task runs only where the serving loop yields between admission
    batches, never inside one; ``seconds`` is the time it took, so it
    can be taken out of a wall time.  Without a probe it does nothing.
    """

    def __init__(self, probe) -> None:
        self.probe = probe
        self.seconds = 0.0
        self._task = None

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self.probe.EVERY_S)
            start = perf_counter()
            self.probe.sample(1)
            self.seconds += perf_counter() - start

    def start(self) -> None:
        if self.probe is not None:
            self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            await asyncio.gather(self._task, return_exceptions=True)


async def _burst(service, events, probe=None):
    """Play ``events`` at once; returns (responses, report, seconds the
    speed samples took)."""
    await service.start()
    sampler = LoopSampler(probe)
    sampler.start()
    try:
        responses = await play(service, events)
        report = await service.stop()
    finally:
        await sampler.stop()
    return responses, report, sampler.seconds


async def _open_loop(service, events, rate, probe=None, idle_only=True):
    """Send ``events`` at ``rate``/s on a fixed schedule.

    The generator never waits on a response before the next send: each
    submission runs as its own task, and when the serving loop held the
    thread past a due time, every overdue request is released at once
    instead of one per loop turn.  Latency is timed from each request's
    due time, so a stall also charges the requests behind it.  Lateness
    is how far behind schedule each submission entered the service, and
    backlog is the queue depth plus the requests already due but not
    yet submitted.  ``done`` holds each request's ``perf_counter`` at
    its response.

    With a ``probe`` and ``idle_only``, the machine's speed is sampled
    in the idle gap before each send, when no request is in the service
    and the next is at least ``IDLE_SAMPLE_S`` away, so a sample never
    delays one; without ``idle_only`` a :class:`LoopSampler` samples it
    throughout.
    """
    loop = asyncio.get_running_loop()
    await service.start()
    n = len(events)
    latency: List[float] = [math.inf] * n
    done: List[float] = [0.0] * n
    statuses: List[str] = [""] * n
    late: List[float] = [0.0] * n
    backlog: List[int] = [0] * n
    inflight = [0]
    sampler = LoopSampler(None if idle_only else probe)
    sampler.start()
    origin = loop.time() + 0.005

    async def send(i, event, due):
        now = loop.time()
        late[i] = max(0.0, now - due)
        overdue = min(n, int((now - origin) * rate) + 1) - i - 1
        backlog[i] = service.depth + max(0, overdue)
        inflight[0] += 1
        try:
            response = await service.submit(event)
        finally:
            inflight[0] -= 1
        statuses[i] = response.status
        if response.ok:
            latency[i] = loop.time() - due
            done[i] = perf_counter()

    tasks = []
    for i, event in enumerate(events):
        due = origin + i / rate
        if probe is not None and idle_only:
            delay = due - loop.time() - IDLE_SAMPLE_S
            if delay > 0:
                await asyncio.sleep(delay)
                if inflight[0] == 0 and due - loop.time() > IDLE_SAMPLE_S / 2:
                    probe.sample(1)
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(send(i, event, due)))
    await asyncio.gather(*tasks)
    await sampler.stop()
    stats = service.stats()
    report = await service.stop()
    return latency, done, statuses, late, backlog, stats, report


def backlog_grows(backlog: List[int]) -> bool:
    """Whether the backlog at send time rose across the step.

    The least-squares slope of backlog against send index must exceed
    ``GROWTH_SLOPE``: more than one request in twenty sent stays queued.
    The timeline is not stationary (segments differ in cost, and later
    checkpoints are larger), so a backlog that builds in a heavy stretch
    and drains again does not count; comparing the first and last
    quarters did, and flipped with the seed.
    """
    n = len(backlog)
    if n < 2:
        return False
    mean_i = (n - 1) / 2.0
    mean_b = sum(backlog) / n
    cov = sum((i - mean_i) * (b - mean_b) for i, b in enumerate(backlog))
    var = sum((i - mean_i) ** 2 for i in range(n))
    return cov / var > GROWTH_SLOPE


@dataclass
class Step:
    """One open-loop ladder step: every event sent at ``rate / factor``
    per second of wall time.

    ``rate`` is the rung, in events per second at the reference speed,
    and ``factor`` the machine's speed factor over the seconds just
    before the step: a machine running slower by that factor is offered
    proportionally fewer events per second.  ``speed`` is the factor
    measured during the step itself; the step's latency limit is
    stretched by it, and ``effective`` is the rate it sent, in events
    per second at the reference speed.  On a machine slowed uniformly a
    step then meets or misses the limit as it would at the reference
    speed.  The reference step and the traced pass run as measured
    (both factors 1).
    """

    rate: float
    factor: float
    speed: float
    latency: List[float]
    ok: int
    late: List[float]
    backlog: List[int]
    stats: dict
    retries: int
    #: perf_counter at each response (0 for refused requests).
    done: List[float] = field(default_factory=list)

    @property
    def tail_ms(self) -> float:
        return 1e3 * percentile(self.latency, tail_percentile(len(self.latency)))

    @property
    def limit_ms(self) -> float:
        return LATENCY_LIMIT_MS * self.speed

    @property
    def effective(self) -> float:
        return self.rate / self.factor * self.speed

    @property
    def late_tail_ms(self) -> float:
        return 1e3 * percentile(self.late, tail_percentile(len(self.late)))

    @property
    def grows(self) -> bool:
        return backlog_grows(self.backlog)

    @property
    def passes(self) -> bool:
        """Meets the latency limit, with ok_share >= 0.99 and no growing
        backlog."""
        return (
            self.ok >= 0.99 * len(self.latency)
            and self.tail_ms <= self.limit_ms
            and not self.grows
        )

    def line(self) -> str:
        n = len(self.latency)
        return (
            f"ladder {self.rate:.1f}/s: sent {self.rate / self.factor:.1f}/s "
            f"at speed factor {self.speed:.3f} = {self.effective:.1f}/s: "
            f"ok {self.ok}/{n} "
            f"p50 {1e3 * median(self.latency):.1f} ms "
            f"p{tail_percentile(n):g} {self.tail_ms:.1f} ms "
            f"gen_late p{tail_percentile(len(self.late)):g} "
            f"{self.late_tail_ms:.1f} ms "
            f"max_depth {self.stats['max_depth']} "
            f"max_backlog {max(self.backlog)} "
            f"backlog {'GROWS' if self.grows else 'steady'} "
            f"{'meets' if self.passes else 'misses'} {self.limit_ms:.0f} ms"
        )


def ladder_step(
    workdir: Path, events, rate: float, factor: float = 1.0, probe=None,
    idle_only: bool = True,
) -> Step:
    """Run one step; with a probe and not ``idle_only``, its ``speed`` is
    measured during the step."""
    service = durable_service(workdir, "ladder", 256)
    start = perf_counter()
    latency, done, statuses, late, backlog, stats, report = asyncio.run(
        _open_loop(service, events, rate / factor, probe, idle_only)
    )
    speed = 1.0
    if probe is not None and not idle_only:
        speed = probe.factor_at(start, perf_counter())
    ok = sum(s == "ok" for s in statuses)
    return Step(
        rate, factor, speed, latency, ok, late, backlog, stats,
        report.n_retries, done,
    )


def staircase_rate(steps: List[Step]) -> float:
    """The rate a service sustains: the mean effective rate of the
    staircase steps.

    Near the capacity whether one step meets the limit is partly chance
    (its backlog test above all), so the highest rung met would be
    decided by a coin flip or two.  The staircase visits the rungs
    around the rate met half the time, and the mean of the rates it
    really sent, at the reference speed, estimates that rate.
    """
    return sum(s.effective for s in steps) / len(steps)


def ladder_rung(k: int) -> float:
    return LADDER_START * LADDER_STEP**k


def walk_ladder(meets, start: float) -> int:
    """Walk the ladder; returns how many calls of ``meets`` were
    staircase steps (0 when no rung met the limit).

    The walk begins at the highest rung not above ``start`` (the first
    rung if none is) and steps down while that misses.  It then climbs
    until a rung misses, and from that miss takes ``STAIRCASE_STEPS``
    more steps, one rung down after a miss and one up after a meet.
    """
    k = max(0, math.floor(math.log(start / LADDER_START, LADDER_STEP) + 1e-9))
    while not meets(ladder_rung(k)):
        if k == 0:
            return 0
        k -= 1
    while ladder_rung(k + 1) <= LADDER_TOP:
        k += 1
        if not meets(ladder_rung(k)):
            break
    else:
        return 1  # every rung met: the top one stands for the staircase
    met = False
    for _ in range(STAIRCASE_STEPS):
        k = k + 1 if met else max(0, k - 1)
        met = meets(ladder_rung(k))
    return STAIRCASE_STEPS + 1


class Service:
    name = "service"

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def prepare(self, seed: int, seconds: int):
        rng = random.Random(seed)
        per_segment = max(12, SERVICE_EVENTS_PER_SECOND * seconds // SERVICE_SEGMENTS)
        return concat_timeline(
            balance(
                [
                    fault_timeline(rng.randrange(2**31), per_segment, 2.5, 1)
                    for _ in range(SERVICE_SEGMENTS)
                ],
                rng,
            )
        )

    def warm(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        events = fault_timeline(0, 12, 2.5, 1)
        service = durable_service(self.workdir, "warm", len(events) + 1)
        asyncio.run(_burst(service, events))

    def run(self, events, check: bool = True, tracer=None, probe=None) -> Result:
        self.workdir.mkdir(parents=True, exist_ok=True)
        errors: List[str] = []
        lines: List[str] = []
        layer: Dict[str, float] = {}
        attempted = failed = 0
        decisions = []

        # Phase 1: burst replay, queue sized to hold the timeline.
        expected = seqs = None
        if check:
            offline, speedups, seqs = offline_reference(events, errors)
            expected = report_decisions(offline)
            failed += len(errors)
        scale = probe.scaled if probe is not None else as_measured
        recovery = Recovery(
            self.workdir, events, expected, seqs, errors, tracer, probe
        )
        bursts = []
        burst_ops = set()
        layer["op_wall_s"] = 0.0
        layer["scheduler.retries"] = 0

        def burst_rate() -> float:
            """Median burst completion rate so far, at the reference speed."""
            return median([len(events) / scale(t, s) for t, s in bursts])

        def burst(rep: int) -> None:
            nonlocal attempted, failed
            if tracer is not None:
                tracer.phase = "burst"
                first = tracer._served
            if probe is not None:
                probe.sample()
            service = durable_service(self.workdir, "burst", len(events) + 1)
            gc.collect()  # no collector debt carried into a ~1 s timed region
            start = perf_counter()
            responses, report, sampled = asyncio.run(
                _burst(service, events, probe)
            )
            wall = perf_counter() - start - sampled
            if probe is not None:
                probe.sample()
            bursts.append((start, wall))
            layer["op_wall_s"] += wall
            layer["scheduler.retries"] += report.n_retries
            if tracer is not None:
                burst_ops.update(range(first, tracer._served))
            attempted += len(events)
            bad = sum(not r.ok for r in responses)
            decisions.append(report_decisions(report))
            if check and report_decisions(report) != expected:
                bad = len(events)
                errors.append(f"burst {rep}: report != OnlineScheduler.run")
            failed += bad

        group = BURST_REPEATS // 3
        for rep in range(group):
            burst(rep)
            recovery.round()

        # Phase 2: open-loop ladder, fresh service and journal per step.
        steps: List[Step] = []

        def meets(rate: float, at_reference_speed: bool = True) -> bool:
            if tracer is not None:
                tracer.phase = f"ladder{len(steps)}"
            factor = 1.0
            if probe is not None:
                probe.sample(LADDER_PROBE_PASSES)
                if at_reference_speed:
                    now = perf_counter()
                    factor = probe.factor_at(now - LADDER_FACTOR_S, now)
            # The reference step, far below capacity, samples the speed
            # in its idle gaps only, so its latencies stay as a user
            # sees them; the rungs above sample it throughout.
            step = ladder_step(
                self.workdir, events, rate, factor, probe,
                idle_only=not at_reference_speed,
            )
            steps.append(step)
            layer["scheduler.retries"] += step.retries
            lines.append(step.line())
            return step.passes

        # The reference step runs at REFERENCE_RATE events/s of wall time.
        reference_passes = meets(REFERENCE_RATE, at_reference_speed=False)
        recovery.round()
        for rep in range(group, 2 * group):
            burst(rep)
        sustained = REFERENCE_RATE if reference_passes else 0.0
        if reference_passes:
            n = walk_ladder(meets, WALK_FROM * burst_rate())
            if n:
                sustained = staircase_rate(steps[-n:])
        # A second reference step after the walk: op_ms.* pool both, so
        # the tail percentile has twice the samples beyond it.
        meets(REFERENCE_RATE, at_reference_speed=False)
        references = [steps[0], steps[-1]]
        served = []
        for reference in references:
            # Refused requests count as failures in ok_share.
            served += [
                (end - seconds, seconds)
                for seconds, end in zip(reference.latency, reference.done)
                if math.isfinite(seconds)
            ]
            attempted += len(events)
            failed += len(events) - reference.ok
        reference = references[0]
        layer["service.batches"] = reference.stats["batches"]
        layer["service.max_depth"] = reference.stats["max_depth"]
        layer["loop.gen_late_ms.tail"] = reference.late_tail_ms

        for rep in range(2 * group, BURST_REPEATS):
            burst(rep)
        recovery.round()
        rates = [len(events) / scale(t, s) for t, s in bursts]
        measured_rates = [len(events) / s for _t, s in bursts]
        lines.append(
            "burst: "
            + ", ".join(
                f"{r:.1f} ({m:.1f} measured)" for r, m in zip(rates, measured_rates)
            )
            + " events/s"
        )

        # Phase 3, interleaved with the other two: recovery rounds.
        n_recoveries = sum(len(t) for t in recovery.times.values())
        attempted += n_recoveries
        failed += sum(1 for e in errors if e.startswith("recovery"))
        decisions.append(sorted(recovery.recovered.items()))

        latency_s = [seconds for _t, seconds in served]
        result = Result(
            op_s=[scale(t, seconds) for t, seconds in served],
            ops_per_s=median(rates),
            attempted=attempted,
            failed=min(failed, attempted),
            digest=digest(decisions),
            errors=errors,
            lines=lines,
            layer=layer,
            op_ids=burst_ops,
            measured={
                **op_measures(latency_s),
                "ops_per_s": median(measured_rates),
                "recover_s": recovery.seconds(as_measured),
            },
        )
        result.values["sustained_ops_per_s"] = sustained
        result.samples["sustained_ops_per_s"] = len(steps)
        result.values["recover_s"] = recovery.seconds(scale)
        result.samples["recover_s"] = n_recoveries
        result.samples["ops_per_s"] = BURST_REPEATS
        if check:
            result.values["acceptance_rate"] = offline.acceptance_rate
            result.samples["acceptance_rate"] = offline.n_arrivals
            result.values["speedup.geomean"] = geomean(speedups)
            result.samples["speedup.geomean"] = len(speedups)
        return result


class Recovery:
    """Crash images of one durable run, recovered in rounds.

    Each crash point lies a fixed number of journal records past a
    periodic checkpoint, so every recovery replays the same tail length.
    Rounds run between the service's other phases, so ``recover_s``
    averages over the run like the other timings.
    """

    def __init__(self, workdir, events, expected, seqs, errors, tracer, probe):
        self.workdir = workdir
        self.probe = probe
        self.expected = expected
        self.seqs = seqs
        self.errors = errors
        self.tracer = tracer
        self.cuts = sorted(
            {
                min(
                    len(events),
                    int((k + 0.5) * len(events) / CRASH_POINTS)
                    // CHECKPOINT_EVERY * CHECKPOINT_EVERY + RECOVER_TAIL,
                )
                for k in range(CRASH_POINTS)
            }
        )
        self.images = self._outside(
            make_crash_images, events, self.cuts, workdir / "crash"
        )
        #: (start, seconds) of each recovery, by crash point.
        self.times: Dict[int, List[tuple]] = {cut: [] for cut in self.cuts}
        self.recovered: Dict[int, list] = {}

    def _outside(self, fn, *args, op=None):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.outside(fn, *args, op=op)

    def round(self) -> None:
        """Recover once from each crash image."""
        for cut, image in zip(self.cuts, self.images):
            prefix = None
            if self.expected is not None:
                prefix = self.expected[: self.seqs[cut - 1] + 1]
            start, elapsed, self.recovered[cut] = self._outside(
                recover_and_check,
                image,
                self.workdir / "recover",
                prefix,
                self.errors,
                self.probe,
                op="recover",
            )
            self.times[cut].append((start, elapsed))
        if self.probe is not None:
            self.probe.sample()

    def seconds(self, scale) -> float:
        """Mean over crash points of the median recovery time."""
        return mean_of_medians(list(self.times.values()), scale)


def make_crash_images(events, cuts: List[int], directory: Path) -> List[Path]:
    """What a durable service killed after each of ``cuts`` events leaves.

    One durable run over the timeline; after event ``cut`` its journal
    (every committed event) and its last periodic checkpoint are copied
    aside.  The journal is closed without the final checkpoint a clean
    stop writes.
    """
    shutil.rmtree(directory, ignore_errors=True)
    live = directory / "live"
    live.mkdir(parents=True)
    durable = DurableScheduler(
        service_scheduler(),
        live / "journal.jsonl",
        checkpoint_path=live / "checkpoint.json",
        checkpoint_every=CHECKPOINT_EVERY,
        fsync=True,
    )
    images = []
    for n, event in enumerate(events[: max(cuts)], start=1):
        durable.process(event)
        if n in cuts:
            image = directory / f"cut{n}"
            shutil.copytree(live, image)
            images.append(image)
    durable.journal.close()
    return images


def recover_and_check(
    crash: Path, work: Path, expected, errors: List[str], probe=None
):
    """Recover from a copy of ``crash``; returns (start, seconds, decisions).

    With ``expected`` given, the recovered report must equal it; a
    mismatch or a failed recovery is appended to ``errors``.
    """
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(crash, work)
    gc.collect()  # no collector debt carried into a ~50 ms timed region
    if probe is not None:
        probe.sample(1)
    start = perf_counter()
    try:
        with DurableScheduler.recover(
            work / "journal.jsonl",
            checkpoint_path=work / "checkpoint.json",
            fsync=True,
        ) as durable:
            elapsed = perf_counter() - start
            recovered = report_decisions(durable.report())
    except Exception:
        errors.append(f"recovery: {traceback.format_exc()}")
        return start, perf_counter() - start, None
    if expected is not None and recovered != expected:
        errors.append("recovery: differs from the journaled prefix")
    return start, elapsed, recovered


def offline_reference(events, errors: List[str]):
    """The ``OnlineScheduler.run`` report, per-event speed-ups, and the
    record index of each event (where a prefix of the run ends).

    Every committed state along the way is checked like ``replay``'s.
    """
    scheduler = service_scheduler()
    speedups = []
    seqs = []
    for i, event in enumerate(events):
        record = scheduler.process(event)
        seqs.append(record.seq)
        verdict = check_committed(scheduler, record)
        if isinstance(verdict, str):
            errors.append(f"offline event {i}: {verdict}")
        elif verdict is not None:
            speedups.append(verdict)
    return scheduler.report(), speedups, seqs


def make(name: str, workdir: Path):
    if name == "search":
        return Search()
    if name == "replay":
        return Replay()
    if name == "service":
        return Service(workdir)
    raise KeyError(name)
