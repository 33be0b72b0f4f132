"""Precompiled charge plans.

For a given *call shape* the MPI layer and the devices charge a fixed
sequence of calibrated costs.  The shape is the build, the Section 3
extension flags, whether the communicator is a predefined handle, its
rank-translation kind, the datatype's usage class, and whether the peer
is concrete, ``MPI_PROC_NULL`` or ``MPI_ANY_SOURCE``.  The paper removes
such fixed per-call work by compile-time specialization (Section 2.2).
The runtime does the same for its own accounting: the first call of a
shape runs the ordinary charge statements against a
:class:`ChargeRecorder`, which stands in for the rank's ``Proc``, and
every later call applies the cached :class:`ChargePlan` in one
``Proc.apply_plan``.  Plans are cached per rank (on its ``Proc`` or
device), never globally: a rank's build and fabric fix them.

The charge statements stay where they were, so they remain the single
statement of what each path charges and the audit's call-graph walk
still resolves every plan entry to a registry key.  Dynamic charges
(retransmits, AM fallback, reorder, progress) keep charging step by
step.

A plan keeps each step's virtual seconds in the original order.  Float
addition is not associative, so adding the steps one at a time is what
keeps the virtual clock bit-identical to step-wise charging.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.instrument.categories import Category, Subsystem

if TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.model import FabricSpec
    from repro.runtime.proc import Proc

#: One recorded charge: (category, instructions, subsystem or None).
Step = tuple[Category, int, "Subsystem | None"]


class ChargePlan:
    """A static charge sequence, precompiled for one call shape.

    Attributes
    ----------
    steps:
        The recorded charges, in order.
    total:
        Instructions over all steps.
    by_category, by_subsystem:
        ``(index, instructions)`` deltas keyed by ``Category.index`` /
        ``Subsystem.index`` (zero deltas left out).
    seconds:
        Each step's virtual seconds on the recording rank's fabric, in
        step order.
    """

    __slots__ = ("steps", "total", "by_category", "by_subsystem",
                 "seconds", "_fabric")

    def __init__(self, steps: tuple[Step, ...], fabric: "FabricSpec"):
        categories: dict[int, int] = {}
        subsystems: dict[int, int] = {}
        for category, n, subsystem in steps:
            categories[category.index] = categories.get(category.index, 0) + n
            if subsystem is not None:
                subsystems[subsystem.index] = (
                    subsystems.get(subsystem.index, 0) + n)
        self.steps = steps
        self.total = sum(n for _, n, _ in steps)
        self.by_category = tuple((i, n) for i, n in categories.items() if n)
        self.by_subsystem = tuple((i, n) for i, n in subsystems.items() if n)
        self.seconds = tuple(fabric.cycles_to_seconds(fabric.sw_cycles(n))
                             for _, n, _ in steps)
        self._fabric = fabric

    def prefix(self, k: int) -> "ChargePlan":
        """The plan of the first *k* steps: what the step-wise code had
        charged when a check after step *k* failed."""
        return ChargePlan(self.steps[:k], self._fabric)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChargePlan({len(self.steps)} steps, total={self.total})"


class ChargeRecorder:
    """Stands in for a rank's ``Proc`` while a plan compiles: each
    :meth:`charge` is recorded instead of applied."""

    __slots__ = ("_fabric", "_steps")

    def __init__(self, proc: "Proc"):
        self._fabric = proc.vclock.fabric
        self._steps: list[Step] = []

    def charge(self, category: Category, n: int,
               subsystem: Subsystem | None = None) -> None:
        """Record one charge (same signature as ``Proc.charge``)."""
        if n < 0:
            raise ValueError(f"negative charge: {n} instructions")
        self._steps.append((category, n, subsystem))

    def plan(self) -> ChargePlan:
        """The recorded steps as a plan."""
        return ChargePlan(tuple(self._steps), self._fabric)
