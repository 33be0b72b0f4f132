"""Per-rank instruction counters.

A counter is installed per thread (one rank of the
:class:`~repro.runtime.world.World` runs per thread) and accumulates
abstract-instruction charges by :class:`Category` and, for mandatory
charges, by :class:`Subsystem`.  The hot-path entry point is
:meth:`InstructionCounter.charge`; a module-level :func:`charge`
convenience resolves the thread's installed counter first.

Counts live in plain lists indexed by ``Category.index`` /
``Subsystem.index`` (a precompiled
:class:`~repro.instrument.plan.ChargePlan` adds into them directly);
:attr:`InstructionCounter.by_category`, ``by_subsystem`` and
:meth:`InstructionCounter.snapshot` expose them as read-only mappings
keyed by the enum members.
"""

from __future__ import annotations

import enum
import threading
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.instrument.categories import Category, Subsystem

_tls = threading.local()


@dataclass
class Snapshot:
    """Immutable-by-convention copy of a counter's state at an instant."""

    total: int
    by_category: Mapping[Category, int]
    by_subsystem: Mapping[Subsystem, int]

    def delta(self, later: "Snapshot") -> "Snapshot":
        """Counts accumulated between this snapshot and *later*."""
        return Snapshot(
            total=later.total - self.total,
            by_category={c: later.by_category.get(c, 0) - self.by_category.get(c, 0)
                         for c in Category},
            by_subsystem={s: later.by_subsystem.get(s, 0) - self.by_subsystem.get(s, 0)
                          for s in Subsystem},
        )


class CountView(Mapping):
    """Read-only mapping from the members of one enum to the counts a
    list holds at their ``index`` — a live view when the list is a
    counter's own, a frozen one in a :class:`Snapshot`."""

    __slots__ = ("_members", "_counts")

    def __init__(self, members: Sequence[enum.Enum], counts: Sequence[int]):
        self._members = members
        self._counts = counts

    def __getitem__(self, member: enum.Enum) -> int:
        if member not in self._members:
            raise KeyError(member)
        return self._counts[member.index]

    def __iter__(self) -> Iterator[enum.Enum]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(dict(self))


_CATEGORIES = tuple(Category)
_SUBSYSTEMS = tuple(Subsystem)


class InstructionCounter:
    """Accumulates abstract-instruction charges for one rank.

    Parameters
    ----------
    label:
        Free-form identification (usually ``"rank <i>"``), used in
        reports.
    """

    __slots__ = ("label", "total", "categories", "subsystems")

    def __init__(self, label: str = ""):
        self.label = label
        self.total = 0
        #: Per-category counts, indexed by ``Category.index``.
        self.categories: list[int] = [0] * len(_CATEGORIES)
        #: Per-subsystem counts, indexed by ``Subsystem.index``.
        self.subsystems: list[int] = [0] * len(_SUBSYSTEMS)

    @property
    def by_category(self) -> Mapping[Category, int]:
        """Live read-only view: category -> instructions charged."""
        return CountView(_CATEGORIES, self.categories)

    @property
    def by_subsystem(self) -> Mapping[Subsystem, int]:
        """Live read-only view: mandatory subsystem -> instructions."""
        return CountView(_SUBSYSTEMS, self.subsystems)

    def charge(self, category: Category, n: int,
               subsystem: Subsystem | None = None) -> None:
        """Charge *n* abstract instructions to *category* (and optionally
        attribute them to a mandatory *subsystem*)."""
        self.total += n
        self.categories[category.index] += n
        if subsystem is not None:
            self.subsystems[subsystem.index] += n

    def reset(self) -> None:
        """Zero all accumulators."""
        self.total = 0
        self.categories[:] = [0] * len(_CATEGORIES)
        self.subsystems[:] = [0] * len(_SUBSYSTEMS)

    def snapshot(self) -> Snapshot:
        """Copy the current state (cheap: two small list copies)."""
        return Snapshot(total=self.total,
                        by_category=CountView(_CATEGORIES,
                                              tuple(self.categories)),
                        by_subsystem=CountView(_SUBSYSTEMS,
                                               tuple(self.subsystems)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"InstructionCounter({self.label!r}, total={self.total})")


def install_counter(counter: InstructionCounter) -> None:
    """Make *counter* the active counter for the calling thread."""
    _tls.counter = counter


def uninstall_counter() -> None:
    """Remove the calling thread's active counter, if any."""
    _tls.counter = None


def current_counter() -> InstructionCounter | None:
    """Return the calling thread's active counter, or None."""
    return getattr(_tls, "counter", None)


def charge(category: Category, n: int,
           subsystem: Subsystem | None = None) -> None:
    """Charge against the calling thread's counter; no-op if none set.

    Runtime-internal code holds a direct counter reference instead of
    calling this — this helper exists for tests and ad-hoc probes.
    """
    counter = getattr(_tls, "counter", None)
    if counter is not None:
        counter.charge(category, n, subsystem)


@contextmanager
def scoped_counter(label: str = "scoped") -> Iterator[InstructionCounter]:
    """Install a fresh counter for the duration of a ``with`` block.

    >>> with scoped_counter() as c:
    ...     charge(Category.MANDATORY, 5)
    >>> c.total
    5
    """
    prev = current_counter()
    counter = InstructionCounter(label)
    install_counter(counter)
    try:
        yield counter
    finally:
        if prev is None:
            uninstall_counter()
        else:
            install_counter(prev)
