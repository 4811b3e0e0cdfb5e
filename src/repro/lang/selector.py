"""Selectors: size-cutoff decision lists that realize polyalgorithms.

Figure 2 of the paper shows the mechanism: a selector is an ordered list of
``(cutoff, algorithm)`` rules plus a fallback algorithm.  When a choice site
is reached with a sub-problem of size ``n``, the first rule whose cutoff
exceeds ``n`` fires; if no rule fires the fallback algorithm is used.  The
example from the paper is::

    n < 600   -> InsertionSort
    n < 1420  -> QuickSort
    otherwise -> MergeSort

Because non-terminal algorithms (QuickSort, MergeSort, ...) recurse back into
the choice site with smaller sub-problems, a selector realizes a recursive
polyalgorithm: MergeSort decomposes big lists, QuickSort medium ones, and
InsertionSort finishes small ones.

Selectors are values in a program's configuration space (the autotuner
evolves them), so this module also provides :class:`SelectorParameter`, a
:class:`~repro.lang.config.Parameter` whose domain is the set of well-formed
selectors over a given choice site.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.lang.choices import ChoiceSite
from repro.lang.config import Parameter


@dataclass(frozen=True)
class SelectorRule:
    """A single ``size < cutoff -> use algorithm`` rule."""

    cutoff: int
    choice: str

    def __post_init__(self) -> None:
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be non-negative, got {self.cutoff}")


@dataclass(frozen=True)
class Selector:
    """An ordered decision list over problem size.

    Attributes:
        rules: rules sorted by ascending cutoff; the first matching rule wins.
        fallback: algorithm used when no rule matches (i.e. for the largest
            sub-problems); this is usually a decomposing (non-terminal)
            algorithm.
    """

    rules: Tuple[SelectorRule, ...]
    fallback: str

    def __post_init__(self) -> None:
        cutoffs = [rule.cutoff for rule in self.rules]
        if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
            raise ValueError(f"rule cutoffs must be strictly increasing: {cutoffs}")
        if not self.fallback:
            raise ValueError("fallback choice name must be non-empty")

    def select(self, size: int) -> str:
        """Return the name of the algorithm to use for a sub-problem of ``size``."""
        for rule in self.rules:
            if size < rule.cutoff:
                return rule.choice
        return self.fallback

    def decisions(self, low: int, high: int) -> Tuple[Tuple[int, int, str], ...]:
        """The choice for every size in ``low..high``, as maximal runs.

        Each run is ``(lo, hi, choice)``: :meth:`select` returns ``choice``
        for every size from ``lo`` to ``hi``, and adjacent runs differ in
        their choice.  Empty when ``low > high``.
        """
        runs: list = []
        start = low
        bounds = [(rule.cutoff, rule.choice) for rule in self.rules]
        for cutoff, choice in bounds + [(high + 1, self.fallback)]:
            end = min(cutoff - 1, high)
            if end < start:
                continue
            if runs and runs[-1][2] == choice:
                start = runs.pop()[0]
            runs.append((start, end, choice))
            start = end + 1
        return tuple(runs)

    @property
    def depth(self) -> int:
        """Number of cutoff rules (0 means "always use the fallback")."""
        return len(self.rules)

    def describe(self) -> str:
        """Human-readable one-line description (used in reports/examples)."""
        parts = [f"n<{rule.cutoff}:{rule.choice}" for rule in self.rules]
        parts.append(f"else:{self.fallback}")
        return " | ".join(parts)

    @staticmethod
    def single(choice: str) -> "Selector":
        """A degenerate selector that always uses ``choice``."""
        return Selector(rules=(), fallback=choice)


class SelectorParameter(Parameter):
    """A configuration-space parameter whose values are :class:`Selector` objects.

    The domain is constrained by the owning :class:`ChoiceSite`:

    * rule algorithms may be any alternative of the site, but to keep the
      polyalgorithm well founded, rules with small cutoffs are biased toward
      *terminal* alternatives (base cases);
    * the fallback may be any alternative; for sites that have non-terminal
      (decomposing) alternatives the sampler prefers those, because a
      terminal fallback on a huge problem is usually a pathological
      configuration the autotuner should still be allowed to explore.

    Args:
        name: parameter name within the configuration space.
        site: the choice site this selector drives.
        max_depth: maximum number of cutoff rules.
        max_cutoff: upper bound for cutoff values (roughly the largest input
            size the benchmark will see).
        min_cutoff: lower bound for the smallest cutoff.
    """

    def __init__(
        self,
        name: str,
        site: ChoiceSite,
        max_depth: int = 3,
        max_cutoff: int = 100_000,
        min_cutoff: int = 2,
    ) -> None:
        super().__init__(name)
        if len(site) == 0:
            raise ValueError(f"choice site {site.name!r} has no alternatives")
        if max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if min_cutoff < 1 or max_cutoff <= min_cutoff:
            raise ValueError("need 1 <= min_cutoff < max_cutoff")
        self.site = site
        self.max_depth = max_depth
        self.max_cutoff = max_cutoff
        self.min_cutoff = min_cutoff

    # -- sampling -------------------------------------------------------

    def _random_cutoffs(self, rng: random.Random, depth: int) -> Tuple[int, ...]:
        """Draw ``depth`` strictly increasing cutoffs, log-uniformly."""
        import math

        if depth == 0:
            return ()
        lo, hi = math.log(self.min_cutoff), math.log(self.max_cutoff)
        cutoffs = sorted(
            int(round(math.exp(rng.uniform(lo, hi)))) for _ in range(depth)
        )
        # Enforce strict increase by nudging duplicates upward.
        result = []
        previous = self.min_cutoff - 1
        for cutoff in cutoffs:
            cutoff = max(cutoff, previous + 1)
            cutoff = min(cutoff, self.max_cutoff)
            if cutoff <= previous:
                break
            result.append(cutoff)
            previous = cutoff
        return tuple(result)

    def _pick_rule_choice(self, rng: random.Random, first_rule: bool) -> str:
        """Pick an algorithm for a rule, biasing the smallest cutoff to base cases."""
        terminals = self.site.terminal_names
        if first_rule and terminals and rng.random() < 0.8:
            return rng.choice(list(terminals))
        return rng.choice(list(self.site.names))

    def _pick_fallback(self, rng: random.Random) -> str:
        non_terminal = [c.name for c in self.site.choices if not c.terminal]
        if non_terminal and rng.random() < 0.8:
            return rng.choice(non_terminal)
        return rng.choice(list(self.site.names))

    def sample(self, rng: random.Random) -> Selector:
        depth = rng.randint(0, self.max_depth)
        cutoffs = self._random_cutoffs(rng, depth)
        rules = tuple(
            SelectorRule(cutoff=cutoff, choice=self._pick_rule_choice(rng, i == 0))
            for i, cutoff in enumerate(cutoffs)
        )
        return Selector(rules=rules, fallback=self._pick_fallback(rng))

    # -- mutation -------------------------------------------------------

    def mutate(self, value: Selector, rng: random.Random, strength: float = 0.3) -> Selector:
        """Perturb one aspect of the selector: a cutoff, a rule's algorithm,
        the fallback, or the structure (add/remove a rule)."""
        operations = ["cutoff", "rule_choice", "fallback", "structure"]
        operation = rng.choice(operations)
        rules = list(value.rules)

        if operation == "cutoff" and rules:
            index = rng.randrange(len(rules))
            rule = rules[index]
            factor = 1.0 + rng.uniform(-strength, strength) * 2.0
            new_cutoff = int(round(rule.cutoff * max(0.1, factor)))
            new_cutoff = min(self.max_cutoff, max(self.min_cutoff, new_cutoff))
            rules[index] = SelectorRule(cutoff=new_cutoff, choice=rule.choice)
            rules = _repair_cutoffs(rules, self.max_cutoff)
            return Selector(rules=tuple(rules), fallback=value.fallback)

        if operation == "rule_choice" and rules:
            index = rng.randrange(len(rules))
            rule = rules[index]
            rules[index] = SelectorRule(
                cutoff=rule.cutoff, choice=rng.choice(list(self.site.names))
            )
            return Selector(rules=tuple(rules), fallback=value.fallback)

        if operation == "fallback":
            return Selector(rules=value.rules, fallback=self._pick_fallback(rng))

        # structure: add or remove a rule
        if rules and (len(rules) >= self.max_depth or rng.random() < 0.5):
            rules.pop(rng.randrange(len(rules)))
        elif len(rules) < self.max_depth:
            new_cutoffs = self._random_cutoffs(rng, 1)
            if new_cutoffs:
                rules.append(
                    SelectorRule(
                        cutoff=new_cutoffs[0],
                        choice=self._pick_rule_choice(rng, not rules),
                    )
                )
                rules.sort(key=lambda r: r.cutoff)
                rules = _repair_cutoffs(rules, self.max_cutoff)
        return Selector(rules=tuple(rules), fallback=value.fallback)

    # -- validation -----------------------------------------------------

    def validate(self, value: object) -> bool:
        if not isinstance(value, Selector):
            return False
        if value.depth > self.max_depth:
            return False
        if value.fallback not in self.site:
            return False
        for rule in value.rules:
            if rule.choice not in self.site:
                return False
            if not (self.min_cutoff <= rule.cutoff <= self.max_cutoff):
                return False
        return True

    def default(self) -> Selector:
        """Default: always use the first non-terminal choice (or first choice)."""
        non_terminal = [c.name for c in self.site.choices if not c.terminal]
        fallback = non_terminal[0] if non_terminal else self.site.names[0]
        terminals = self.site.terminal_names
        if terminals:
            return Selector(
                rules=(SelectorRule(cutoff=32, choice=terminals[0]),),
                fallback=fallback,
            )
        return Selector.single(fallback)


def _repair_cutoffs(rules: Sequence[SelectorRule], max_cutoff: int) -> list:
    """Make cutoffs strictly increasing after a mutation, preserving choices."""
    repaired = []
    previous: Optional[int] = None
    for rule in sorted(rules, key=lambda r: r.cutoff):
        cutoff = rule.cutoff
        if previous is not None and cutoff <= previous:
            cutoff = previous + 1
        if cutoff > max_cutoff:
            break
        repaired.append(SelectorRule(cutoff=cutoff, choice=rule.choice))
        previous = cutoff
    return repaired
