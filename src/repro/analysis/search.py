"""Randomized counterexample search (conjecture probing).

The paper's open questions (Section 7) invite experimentation: *is there an
O(1)-machine non-migratory algorithm for m = 2?  Is O(m log m) needed for
laminar instances?*  This module provides a seeded random-search driver
that hunts for instances on which a policy's machines/OPT ratio exceeds a
target — a cheap falsification tool for such conjectures.

A returned :class:`BadInstance` is a *certificate*: it carries the
instance, the exact optimum, and the policy's measured machine requirement,
all re-checkable.  ``None`` means the search failed, which is evidence (not
proof) in the conjecture's favour; the driver reports the worst ratio seen
either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

from ..model.instance import Instance
from ..offline.optimum import migratory_optimum
from ..online.base import Policy
from ..online.engine import min_machines


@dataclass(frozen=True)
class BadInstance:
    """A found counterexample with its certificate numbers."""

    instance: Instance
    optimum: int
    policy_machines: int
    seed: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.policy_machines, self.optimum)


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a counterexample hunt."""

    found: Optional[BadInstance]
    trials: int
    worst_ratio: float
    worst_seed: int


def find_bad_instance(
    policy_factory: Callable[[], Policy],
    instance_maker: Callable[[int], Instance],
    ratio_target: float,
    max_trials: int = 100,
    opt_filter: Optional[Callable[[int], bool]] = None,
    start_seed: int = 0,
) -> SearchReport:
    """Search seeds for an instance with ``machines/OPT > ratio_target``.

    ``opt_filter`` restricts which optima count (e.g. ``lambda m: m == 2``
    to probe the paper's m = 2 open question).  Deterministic given
    ``start_seed``.
    """
    worst = 0.0
    worst_seed = start_seed
    trials = 0
    for seed in range(start_seed, start_seed + max_trials):
        instance = instance_maker(seed)
        if len(instance) == 0:
            continue
        m = migratory_optimum(instance)
        if m == 0 or (opt_filter is not None and not opt_filter(m)):
            continue
        trials += 1
        k = min_machines(lambda n: policy_factory(), instance, lo=m)
        ratio = k / m
        if ratio > worst:
            worst = ratio
            worst_seed = seed
        if ratio > ratio_target:
            return SearchReport(
                found=BadInstance(instance, m, k, seed),
                trials=trials,
                worst_ratio=ratio,
                worst_seed=seed,
            )
    return SearchReport(found=None, trials=trials, worst_ratio=worst,
                        worst_seed=worst_seed)
