"""Systematic competitive-ratio profiling across policies and families.

Lemma 1 of the paper ties the power-of-migration ratio to the competitive
ratio; these helpers measure the empirical ratio ``machines / m`` of any
policy over seeded workload families, powering the capstone cross-table in
``benchmarks/bench_competitive_profile.py`` ("who wins where, by how much").

Sampling is embarrassingly parallel, so every entry point takes ``n_jobs``:
with ``n_jobs=1`` (the default) the historical in-process loop runs
unchanged; with ``n_jobs != 1`` the samples fan out through
:mod:`repro.runner` — which requires the policy to be named by its registry
key (``"edf"``, ``"llf"``, ``"firstfit"``, …) rather than an unpicklable
factory closure.  Both paths produce bit-identical profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, median
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..model.instance import Instance
from ..offline.optimum import migratory_optimum
from ..online.base import Policy
from ..online.engine import min_machines

#: A policy argument: a zero-arg factory, or a :mod:`repro.runner` registry name.
PolicyArg = Union[str, Callable[[], Policy]]


@dataclass(frozen=True)
class RatioProfile:
    """Distribution summary of ``machines / m`` over a family sample."""

    policy: str
    family: str
    samples: int
    worst: float
    average: float
    med: float

    def row(self) -> Tuple[str, str, int, float, float, float]:
        return (
            self.policy,
            self.family,
            self.samples,
            round(self.worst, 3),
            round(self.average, 3),
            round(self.med, 3),
        )


def _profile_from_ratios(
    policy: str, family: str, ratios: List[float]
) -> RatioProfile:
    if not ratios:
        raise ValueError("no non-trivial samples")
    return RatioProfile(
        policy=policy,
        family=family,
        samples=len(ratios),
        worst=max(ratios),
        average=mean(ratios),
        med=median(ratios),
    )


def _resolve_factory(policy: PolicyArg) -> Callable[[], Policy]:
    if isinstance(policy, str):
        from ..runner.tasks import resolve_policy

        cls = resolve_policy(policy)
        return lambda: cls()
    return policy


def ratio_profile(
    policy_name: str,
    policy_factory: PolicyArg,
    family_name: str,
    instance_maker: Callable[[int], Instance],
    seeds: Sequence[int],
    n_jobs: int = 1,
    chunksize: int = 4,
) -> RatioProfile:
    """Sample ``machines/m`` for one policy over one instance family."""
    if n_jobs != 1:
        return _parallel_profiles(
            [(policy_name, policy_factory)],
            [(family_name, instance_maker)],
            seeds,
            n_jobs,
            chunksize,
        )[0]
    factory = _resolve_factory(policy_factory)
    ratios: List[float] = []
    for seed in seeds:
        instance = instance_maker(seed)
        if len(instance) == 0:
            continue
        m = migratory_optimum(instance)
        if m == 0:
            continue
        k = min_machines(lambda n: factory(), instance, lo=m)
        ratios.append(k / m)
    return _profile_from_ratios(policy_name, family_name, ratios)


def profile_matrix(
    policies: Dict[str, PolicyArg],
    families: Dict[str, Callable[[int], Instance]],
    seeds: Sequence[int],
    n_jobs: int = 1,
    chunksize: int = 4,
) -> List[RatioProfile]:
    """Full cross product of policies × families."""
    if n_jobs != 1:
        return _parallel_profiles(
            list(policies.items()), list(families.items()), seeds, n_jobs, chunksize
        )
    out: List[RatioProfile] = []
    for family_name, maker in families.items():
        for policy_name, factory in policies.items():
            out.append(
                ratio_profile(policy_name, factory, family_name, maker, seeds)
            )
    return out


def _parallel_profiles(
    policies: List[Tuple[str, PolicyArg]],
    families: List[Tuple[str, Callable[[int], Instance]]],
    seeds: Sequence[int],
    n_jobs: int,
    chunksize: int,
) -> List[RatioProfile]:
    """Fan the sample grid out through the runner; aggregate per cell.

    Instances are generated in the parent (the makers may be closures) and
    shipped inline; each instance's samples share one chunk group, so every
    policy probing it reuses the warm feasibility cache, exactly like the
    serial loop.  Policies must be runner-registry names.
    """
    from ..runner import SweepPlan, run_sweep

    for display, policy in policies:
        if not isinstance(policy, str):
            raise ValueError(
                f"n_jobs != 1 requires registry policy names, got a "
                f"{type(policy).__name__} for {display!r}; see repro.runner.POLICIES"
            )
    entries = []
    cells: List[Tuple[str, str]] = []
    for family_name, maker in families:
        for seed in seeds:
            instance = maker(seed)
            if len(instance) == 0:
                continue
            for display, policy in policies:
                entries.append(
                    ("ratio_sample", instance, {"policy": policy, "family": family_name})
                )
    for family_name, _ in families:
        for display, _ in policies:
            cells.append((display, family_name))
    plan = SweepPlan.build(entries)
    report = run_sweep(plan, n_jobs=n_jobs, chunksize=chunksize)
    failed = report.errors + report.crashes + report.cancelled
    if failed:
        first = failed[0]
        raise RuntimeError(
            f"ratio sweep failed on item {first.index}: {first.error}"
        )
    ratios: Dict[Tuple[str, str], List[float]] = {cell: [] for cell in cells}
    by_name = {policy: display for display, policy in policies}
    for result in report.results:
        sample = result.value
        if sample["ratio"] is None:
            continue
        key = (by_name[sample["policy"]], sample["family"])
        # float(Fraction) rounds exactly like the serial loop's int division.
        ratios[key].append(float(sample["ratio"]))
    return [
        _profile_from_ratios(display, family, ratios[(display, family)])
        for display, family in cells
    ]


def profiles_from_samples(samples: Iterable[Optional[dict]]) -> List[RatioProfile]:
    """Aggregate raw ``ratio_sample`` task outputs into profiles.

    Used by ``repro sweep ratio`` to turn a :class:`~repro.runner.SweepReport`
    into the familiar cross-table; cells appear in first-seen order.
    """
    ratios: Dict[Tuple[str, str], List[float]] = {}
    for sample in samples:
        if sample is None:
            continue
        key = (sample["policy"], sample["family"])
        ratios.setdefault(key, [])
        if sample["ratio"] is not None:
            ratios[key].append(float(sample["ratio"]))
    return [
        _profile_from_ratios(policy, family, values)
        for (policy, family), values in ratios.items()
    ]
