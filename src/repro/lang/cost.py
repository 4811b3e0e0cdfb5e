"""Deterministic work-unit cost accounting.

The paper measures wall-clock execution time on a 32-core Xeon.  This
reproduction replaces wall-clock time with a deterministic *work unit* count
(see README.md, "Substitutions", item 1): every benchmark algorithm charges
operations (comparisons, swaps, arithmetic operations, stencil updates, ...)
to a :class:`CostCounter`.  The resulting counts play the role of execution
time everywhere in the system -- in the autotuner's objective, in the
performance measurements of Level 1, in the classifier-selection objective of
Level 2, and in the reported speedups.

Using operation counts rather than timers keeps the whole reproduction
deterministic and platform independent while preserving the *relative*
performance structure (which algorithm wins on which input, and by what
factor) that the paper's conclusions rest on.

Charges are floats, so their order matters: after a non-integer charge
(such as a sort's ``n log2 n``), adding ``k`` units in one step can round
differently from ``k`` separate ``+1`` steps.  :func:`charge_ones` adds
``count`` units with exactly the floats of ``count`` calls of
``charge(1, category)``.  A kernel may defer unit charges to one
``charge_ones`` call only when no other charge falls between them, so that
the deferred units land on the counter in the order they were incurred.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional


@dataclass
class CostCounter:
    """Accumulates abstract work units charged by instrumented algorithms.

    Attributes:
        total: total work units charged so far.
        by_category: per-category breakdown (e.g. ``"compare"``, ``"swap"``,
            ``"flop"``).  Categories are free-form strings chosen by the
            charging code.
    """

    total: float = 0.0
    by_category: Dict[str, float] = field(default_factory=dict)

    def charge(self, amount: float, category: str = "work") -> None:
        """Charge ``amount`` work units to ``category``.

        Args:
            amount: non-negative number of work units.
            category: free-form label for the breakdown.

        Raises:
            ValueError: if ``amount`` is negative.
        """
        if amount < 0:
            raise ValueError(f"cannot charge negative cost: {amount}")
        self.total += amount
        self.by_category[category] = self.by_category.get(category, 0.0) + amount

    def merge(self, other: "CostCounter") -> None:
        """Fold another counter's charges into this one."""
        self.total += other.total
        for category, amount in other.by_category.items():
            self.by_category[category] = (
                self.by_category.get(category, 0.0) + amount
            )

    def reset(self) -> None:
        """Zero the counter."""
        self.total = 0.0
        self.by_category.clear()

    def snapshot(self) -> float:
        """Return the current total (useful for measuring a sub-interval)."""
        return self.total

    def since(self, snapshot: float) -> float:
        """Return work charged since a previous :meth:`snapshot`."""
        return self.total - snapshot

    def copy(self) -> "CostCounter":
        """Return an independent copy of this counter."""
        clone = CostCounter(total=self.total)
        clone.by_category = dict(self.by_category)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CostCounter(total={self.total:.1f}, categories={len(self.by_category)})"


# An ambient "current" counter lets deeply nested algorithm code charge work
# without threading a counter argument through every helper.  The benchmark
# drivers install a counter for the duration of a run via ``scoped_counter``.
#
# The counter lives in a ContextVar rather than a module global so that
# concurrent runs (the serving layer runs ``program.run`` on up to
# ``execution_workers`` threads) each see their own counter: a worker
# thread starts with no counter installed and ``program.run`` scopes a
# fresh one for exactly its own run.  Within a single thread the behaviour
# is identical to a module global.
_current: contextvars.ContextVar[Optional[CostCounter]] = contextvars.ContextVar(
    "repro_cost_counter", default=None
)


def current_counter() -> Optional[CostCounter]:
    """Return the counter installed by the innermost :func:`scoped_counter`."""
    return _current.get()


def charge(amount: float, category: str = "work") -> None:
    """Charge work to the currently installed counter, if any.

    Algorithm code calls this unconditionally; when no counter is installed
    (e.g. an algorithm used stand-alone outside a benchmark run) the charge
    is silently dropped, so the algorithms remain usable as ordinary library
    functions.
    """
    counter = _current.get()
    if counter is not None:
        # Inlined CostCounter.charge: every instrumented algorithm charges
        # here, many times per run, so the method dispatch is worth skipping.
        if amount < 0:
            raise ValueError(f"cannot charge negative cost: {amount}")
        counter.total += amount
        categories = counter.by_category
        categories[category] = categories.get(category, 0.0) + amount


#: Below this, floats are spaced at most 1/2 apart; from here up
#: :func:`_add_ones` adds its ones one by one.
_TWO_52 = 2.0**52


def _add_ones(value: float, count: int) -> float:
    """Return ``value`` after ``count`` successive ``+ 1.0`` additions, bit for bit.

    Below 2**52 floats are spaced at most 1/2 apart, so every ``+ 1.0``
    whose result stays below the power of two just above ``value`` is exact,
    and all of them can be added at once (the distance to that power is
    itself exact, by Sterbenz's lemma).  Only the one addition that reaches
    the power can round, so it is done alone, and the walk repeats.
    """
    while count > 0 and 0.0 <= value < _TWO_52:
        power = math.ldexp(1.0, math.frexp(value)[1])
        exact = min(count, math.ceil(power - value) - 1)
        value += exact
        count -= exact
        if count:
            value += 1.0
            count -= 1
    for _ in range(count):
        value += 1.0
    return value


def charge_ones(count: int, category: str = "work") -> None:
    """Charge ``count`` units to ``category`` as ``count`` calls of
    ``charge(1, category)`` would, bit for bit, on the total and on the
    category, in a few steps per power of two the values cross.

    A count of 0 adds no category.  When no counter is installed the
    charge is dropped, as :func:`charge` drops it.

    Raises:
        ValueError: if ``count`` is negative.
    """
    counter = _current.get()
    if counter is not None:
        if count < 0:
            raise ValueError(f"cannot charge a negative count: {count}")
        if count:
            counter.total = _add_ones(counter.total, count)
            categories = counter.by_category
            categories[category] = _add_ones(categories.get(category, 0.0), count)


@contextlib.contextmanager
def scoped_counter(counter: Optional[CostCounter] = None) -> Iterator[CostCounter]:
    """Install ``counter`` as the current counter for the ``with`` block.

    Args:
        counter: counter to install; a fresh one is created when omitted.

    Yields:
        The installed counter, so callers can read ``counter.total`` after
        the block.
    """
    if counter is None:
        counter = CostCounter()
    token = _current.set(counter)
    try:
        yield counter
    finally:
        _current.reset(token)
