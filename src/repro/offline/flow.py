"""Exact offline migratory feasibility via maximum flow.

The preemptive migratory machine-minimization problem is solvable offline in
polynomial time (Horn's classic flow formulation, referenced in Section 1 of
the paper).  For a candidate machine count ``m``:

* split the time axis at the release/deadline event points into elementary
  intervals ``E_1, …, E_K``;
* build the network ``source → job → interval → sink`` with capacities
  ``p_j``, ``|E_k|`` (a job cannot self-parallelize within an interval) and
  ``m·|E_k|`` (machine capacity);
* the instance is feasible on ``m`` unit-speed machines iff the max flow
  saturates all source arcs, i.e. equals ``Σ_j p_j``.

All rational data is scaled by the common denominator so the flow problem is
*integral* and the answer is exact.  A feasible flow is turned into an
explicit migratory :class:`~repro.model.schedule.Schedule` by McNaughton's
wrap-around rule inside each elementary interval.  The wrap stays in
integers: :func:`schedule_from_work` takes the network's raw flows in its
own unit (``speed · scale`` ticks per unit of machine time), puts the
interval endpoints on the same tick, wraps and merges int tuples, and
builds each :class:`~repro.model.schedule.Segment` once.  Exact work maps
(the networkx backend, :func:`max_flow_assignment`, :func:`mcnaughton`)
are first put over their own common denominator and share the same wrap.
The schedule checker does not reuse any of this: it derives its own tick
(see :meth:`~repro.model.schedule.Schedule.verify`).

Three interchangeable solver backends answer the flow question (the default
``"auto"`` resolves to the fastest Dinic kernel available — see
:func:`resolve_backend`):

* ``"dinic"`` — the flat-array solver in :mod:`repro.offline.dinic`, fed by
  the per-instance memo in :mod:`repro.offline.feascache` (event intervals,
  scales, and verdicts are computed once per instance; feasibility probes
  warm-start each other);
* ``"dinic_c"`` — the compiled kernel of :mod:`repro.offline.kernel`: the
  whole blocking-flow loop (plus the greedy pass, topology build, and
  warm-start capacity updates) runs natively over the same zero-copy
  buffers with bit-identical flows; lazily compiled at first use and
  unavailable (gracefully) when no C compiler or cached build exists;
* ``"networkx"`` — the original generic ``nx.maximum_flow`` formulation,
  kept as an independent implementation for differential testing and as the
  baseline in ``benchmarks/bench_scale.py``; networkx is an optional
  dependency, imported only when this backend runs.

All backends consume the *sparsified* event intervals by default (zero-
demand elementary intervals dropped before the network is built — see
:mod:`repro.offline.feascache`); ``sparsify=False`` rebuilds over the full
elementary structure, with provably identical results.
"""

from __future__ import annotations

import importlib.util
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..model.instance import Instance
from ..model.intervals import Numeric, to_fraction
from ..model.schedule import Schedule, Segment
from .feascache import cache_for

_SOURCE = "s"
_SINK = "t"

#: Solver backends accepted by :func:`max_flow_assignment` and friends.
BACKENDS = ("dinic", "dinic_c", "networkx")

#: ``"auto"`` resolves to the fastest kernel available in this process
#: (``dinic_c`` → ``dinic``); see :func:`resolve_backend`.
DEFAULT_BACKEND = "auto"

#: Dinic-family backends and the kernel each one selects.
_DINIC_KERNELS = {"dinic": "py", "dinic_c": "c"}


def resolve_backend(backend: str = DEFAULT_BACKEND) -> str:
    """The concrete backend a request will run on.

    ``"auto"`` picks the fastest kernel usable in this process, probing the
    ladder ``dinic_c`` (compiled; needs a C compiler or a warm build cache)
    → ``dinic`` (pure stdlib).  Both produce bit-identical flows, so the
    choice is invisible except in speed; the resolved name is what result
    metadata and obs spans record.
    Concrete names pass through unchanged (after validation) — including
    ``dinic_c`` on a host that cannot provide it, which then raises
    :class:`~repro.offline.kernel.KernelUnavailable` at first use rather
    than silently degrading an explicit request.
    """
    if backend == "auto":
        from .kernel import best_kernel

        return "dinic_c" if best_kernel() == "c" else "dinic"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown flow backend {backend!r}; expected one of "
            f"{BACKENDS + ('auto',)}"
        )
    return backend


def available_backends() -> Tuple[str, ...]:
    """The subset of :data:`BACKENDS` usable in this process.

    ``dinic_c`` needs a C compiler or a warm build cache (and honors the
    ``REPRO_DINIC_C=off`` escape hatch); ``networkx`` needs the optional
    package.  This is the default backend set of the differential harness,
    so cross-checks run everywhere without configuration.
    """
    from .kernel import available

    return tuple(
        b for b in BACKENDS
        if (b != "dinic_c" or available())
        and (b != "networkx" or importlib.util.find_spec("networkx"))
    )


def _event_intervals(instance: Instance) -> List[Tuple[Fraction, Fraction]]:
    """Elementary intervals between consecutive release/deadline events.

    Memoized per instance — instances are immutable, so the structure is
    computed at most once no matter how many probes ask for it.
    """
    return cache_for(instance).intervals


def _common_scale(instance: Instance, extra: Sequence[Fraction] = ()) -> int:
    """LCM of all denominators appearing in the instance (and ``extra``).

    The instance part is memoized per instance; only the (tiny) ``extra``
    fold-in is recomputed.
    """
    scale = cache_for(instance).base_scale
    for x in extra:
        d = x.denominator
        scale = scale * d // math.gcd(scale, d)
    return scale


def _build_network(
    instance: Instance,
    m: int,
    speed: Fraction,
    intervals: List[Tuple[Fraction, Fraction]],
    scale: int,
):
    """The generic ``networkx`` formulation of the feasibility network."""
    import networkx as nx

    graph = nx.DiGraph()
    for k, (a, b) in enumerate(intervals):
        cap = int((b - a) * speed * scale)
        graph.add_edge(("iv", k), _SINK, capacity=m * cap)
    for job in instance:
        graph.add_edge(_SOURCE, ("job", job.id), capacity=int(job.processing * scale))
        for k, (a, b) in enumerate(intervals):
            if job.release <= a and b <= job.deadline:
                graph.add_edge(
                    ("job", job.id), ("iv", k), capacity=int((b - a) * speed * scale)
                )
    return graph


def _scaled_inputs(
    instance: Instance, speed: Fraction, sparsify: bool = True
) -> Tuple[List[Tuple[Fraction, Fraction]], int]:
    """Memoized ``(network intervals, scale)`` for one ``(instance, speed)``.

    The interval list is the one the networks are built over (sparsified by
    default).  Capacities ``(b−a)·speed·scale`` and ``p_j·scale`` must be
    integral: take the LCM of all data denominators and one extra factor of
    ``speed.denominator`` (the LCM alone does not guarantee divisibility of
    the *product* of two fractional factors).
    """
    cache = cache_for(instance, sparsify=sparsify)
    return cache.network_intervals, cache.scale_for(speed)


def max_flow_assignment(
    instance: Instance,
    m: int,
    speed: Numeric = 1,
    backend: str = DEFAULT_BACKEND,
    sparsify: bool = True,
) -> Tuple[bool, Dict[int, Dict[int, Fraction]], List[Tuple[Fraction, Fraction]]]:
    """Solve the feasibility flow for ``m`` speed-``speed`` machines.

    Returns ``(feasible, work, intervals)`` where ``work[job_id][k]`` is the
    amount of *machine time* job ``job_id`` spends in interval ``k`` of the
    returned interval list in a maximum flow (work equals machine time
    times speed).  The interval list is the (sparsified, by default) event
    structure the network was built over.
    """
    backend = resolve_backend(backend)
    if len(instance) == 0:
        return True, {}, []
    if m <= 0:
        return False, {}, []
    speed = to_fraction(speed)
    intervals, scale = _scaled_inputs(instance, speed, sparsify)
    kernel = _DINIC_KERNELS.get(backend)
    if kernel is not None:
        cache = cache_for(instance, sparsify=sparsify)
        network = cache.solved_network(m, speed, kernel)
        unit = speed * scale
        work = {
            job_id: {k: amount / unit for k, amount in row.items()}
            for job_id, row in network.work_by_job().items()
        }
        return network.feasible, work, intervals
    import networkx as nx

    graph = _build_network(instance, m, speed, intervals, scale)
    total = sum(int(j.processing * scale) for j in instance)
    flow_value, flow_dict = nx.maximum_flow(
        graph, _SOURCE, _SINK, flow_func=nx.algorithms.flow.dinitz
    )
    feasible = flow_value == total
    work: Dict[int, Dict[int, Fraction]] = {}
    for job in instance:
        row: Dict[int, Fraction] = {}
        for node, amount in flow_dict.get(("job", job.id), {}).items():
            if amount > 0 and isinstance(node, tuple) and node[0] == "iv":
                # amount is work in scaled units; machine time = work / speed
                row[node[1]] = Fraction(amount, scale) / speed
        work[job.id] = row
    return feasible, work, intervals


def migratory_feasible(
    instance: Instance,
    m: int,
    speed: Numeric = 1,
    backend: str = DEFAULT_BACKEND,
    sparsify: bool = True,
) -> bool:
    """Exact test: does a feasible migratory schedule on ``m`` machines exist?

    The dinic backends answer through the per-instance cache: repeated
    probes on the same instance reuse the built network, warm-start from
    each other's residual flows, and memoize ``(m, speed)`` verdicts.
    """
    backend = resolve_backend(backend)
    kernel = _DINIC_KERNELS.get(backend)
    if kernel is not None:
        if len(instance) == 0:
            return True
        if m <= 0:
            return False
        return cache_for(instance, sparsify=sparsify).feasible(
            m, to_fraction(speed), kernel
        )
    feasible, _, _ = max_flow_assignment(
        instance, m, speed, backend=backend, sparsify=sparsify
    )
    return feasible


def mcnaughton(
    pieces: Sequence[Tuple[int, Fraction]],
    start: Fraction,
    end: Fraction,
    m: int,
    machine_offset: int = 0,
) -> List[Segment]:
    """McNaughton's wrap-around rule for one elementary interval.

    ``pieces`` are ``(job_id, machine_time)`` with each piece at most
    ``end − start`` and total at most ``m (end − start)``.  Pieces are laid
    out on a virtual timeline of length ``m (end − start)`` and wrapped onto
    machines; a wrapped piece becomes two non-overlapping segments on two
    machines (this is where migration enters).  The wrap itself runs in
    integer ticks of the inputs' common denominator (:func:`_wrap`).
    """
    start, end = to_fraction(start), to_fraction(end)
    pieces = [(job_id, to_fraction(amount)) for job_id, amount in pieces]
    unit = math.lcm(start.denominator, end.denominator,
                    *(amount.denominator for _, amount in pieces))
    ticks = [(job_id, amount.numerator * (unit // amount.denominator))
             for job_id, amount in pieces]
    return [
        Segment(job_id, machine, Fraction(a, unit), Fraction(b, unit))
        for machine, job_id, a, b in _wrap(
            ticks, start.numerator * (unit // start.denominator),
            end.numerator * (unit // end.denominator), m, machine_offset,
        )
    ]


def _wrap(
    pieces: Sequence[Tuple[int, int]],
    start: int,
    end: int,
    m: int,
    machine_offset: int = 0,
) -> List[Tuple[int, int, int, int]]:
    """:func:`mcnaughton` on integer ticks: ``(machine, job_id, a, b)`` rows."""
    length = end - start
    if length <= 0:
        raise ValueError("empty elementary interval")
    rows: List[Tuple[int, int, int, int]] = []
    machine = machine_offset
    last = machine_offset + m
    cursor = start
    for job_id, amount in pieces:
        if amount <= 0:
            continue
        if amount > length:
            raise ValueError(f"piece of job {job_id} exceeds interval length")
        while amount > 0:
            if machine >= last:
                raise ValueError("pieces exceed machine capacity")
            # cursor < end always holds here, so every row is non-empty
            take = min(end - cursor, amount)
            rows.append((machine, job_id, cursor, cursor + take))
            cursor += take
            amount -= take
            if cursor == end:
                machine += 1
                cursor = start
    return rows


def _ticks(work: Dict[int, Dict[int, Fraction]]) -> Tuple[Dict[int, Dict[int, int]], int]:
    """An exact work map as integer ticks of its amounts' common denominator."""
    unit = math.lcm(*{amount.denominator for row in work.values() for amount in row.values()})
    return {
        job_id: {k: a.numerator * (unit // a.denominator) for k, a in row.items()}
        for job_id, row in work.items()
    }, unit


def schedule_from_work(
    work: Dict[int, Dict[int, Numeric]],
    intervals: Sequence[Tuple[Fraction, Fraction]],
    m: int,
    unit: Optional[Numeric] = None,
) -> Schedule:
    """Turn a feasible flow's work map into an explicit migratory schedule.

    ``work[job_id][k]`` is the machine time job ``job_id`` spends in
    interval ``k``: an exact number when ``unit`` is ``None``, or else an
    integer count of ``1/unit`` ticks — the raw flow of
    :meth:`~repro.offline.dinic.FeasibilityNetwork.work_by_job` with
    ``unit = speed · scale``.  Either way the wrap runs on integers: the
    amounts and the interval endpoints are put over one common tick, the
    pieces of each interval are sorted by decreasing size (ties by job id)
    so that a job split across the wrap boundary never overlaps itself (its
    piece is at most the interval length), adjacent pieces of one job on
    one machine are merged, and each :class:`Segment` is built once, at
    the end.
    """
    if unit is None:
        work, unit = _ticks(work)
    unit = to_fraction(unit)
    # machine time = amount / unit = amount·q / p for unit = p/q; refine the
    # tick 1/p until every interval endpoint is a whole number of ticks.
    tick = math.lcm(unit.numerator, *{x.denominator for ab in intervals for x in ab})
    factor = tick // unit.numerator * unit.denominator
    per_interval: Dict[int, List[Tuple[int, int]]] = {}
    for job_id, row in work.items():
        for k, amount in row.items():
            per_interval.setdefault(k, []).append((job_id, amount * factor))
    rows: List[Tuple[int, int, int, int]] = []
    for k, pieces in per_interval.items():
        a, b = intervals[k]
        pieces.sort(key=lambda piece: (-piece[1], piece[0]))
        rows += _wrap(pieces, a.numerator * (tick // a.denominator),
                      b.numerator * (tick // b.denominator), m)
    # Merge back-to-back rows of one job on one machine, then order the
    # result by (start, machine, job) — the normal form of Schedule.
    rows.sort()
    merged: List[List[int]] = []
    last = None
    for machine, job_id, a, b in rows:
        if last is not None and last[1] == machine and last[2] == job_id and last[3] == a:
            last[3] = b
        else:
            last = [a, machine, job_id, b]
            merged.append(last)
    merged.sort()
    times: Dict[int, Fraction] = {}  # segments share endpoints: one Fraction each
    segments = []
    for a, machine, job_id, b in merged:
        start = times.get(a)
        if start is None:
            start = times[a] = Fraction(a, tick)
        end = times.get(b)
        if end is None:
            end = times[b] = Fraction(b, tick)
        segments.append(Segment(job_id, machine, start, end))
    return Schedule._from_normalized(tuple(segments))


def migratory_schedule(
    instance: Instance,
    m: int,
    speed: Numeric = 1,
    backend: str = DEFAULT_BACKEND,
    sparsify: bool = True,
) -> Optional[Schedule]:
    """An explicit feasible migratory schedule on ``m`` machines, or ``None``."""
    feasible, work, intervals = max_flow_assignment(
        instance, m, speed, backend=backend, sparsify=sparsify
    )
    if not feasible:
        return None
    return schedule_from_work(work, intervals, m)


def networkx_min_cut(
    instance: Instance, m: int, speed: Numeric = 1, sparsify: bool = True
) -> Tuple[List[int], List[int]]:
    """Source side of a minimum cut of the networkx-built feasibility network.

    Returns ``(job_ids, interval_indices)`` — the independent counterpart of
    :meth:`repro.offline.dinic.FeasibilityNetwork.min_cut`, used to extract
    Theorem 1 overloaded-interval witnesses from the networkx backend.
    """
    if len(instance) == 0 or m <= 0:
        # No network to cut: every job (with its whole window) is a witness.
        return [j.id for j in instance], []
    import networkx as nx

    speed = to_fraction(speed)
    intervals, scale = _scaled_inputs(instance, speed, sparsify)
    graph = _build_network(instance, m, speed, intervals, scale)
    _, (reachable, _) = nx.minimum_cut(
        graph, _SOURCE, _SINK, flow_func=nx.algorithms.flow.dinitz
    )
    jobs = sorted(node[1] for node in reachable
                  if isinstance(node, tuple) and node[0] == "job")
    ivs = sorted(node[1] for node in reachable
                 if isinstance(node, tuple) and node[0] == "iv")
    return jobs, ivs
