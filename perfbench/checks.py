"""Correctness checks on the program's answers.

None of them compares against a stored copy of earlier output.  Each
check returns a list of violation messages (empty = passed):

* :func:`subset_of_andersen` — every answer's objects lie inside the
  whole-program Andersen solution for its variable (demand CFL
  analysis is at least as precise as Andersen, and never unsound).
* :func:`equal_to_fresh_engine` — on a seeded sample, every answer that
  completed equals a fresh share-nothing engine at a higher budget,
  wherever that engine completes too.  Catches dropped objects, which
  the subset check cannot see.
* :func:`exactly_once` — every submitted query is answered exactly once.
* :func:`alias_agrees` — an alias verdict matches the points-to sets of
  its two sides.

``selftest.py`` shows that each check fails on a corrupted answer.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Tuple

from repro.api import CFLEngine, EngineConfig

#: A fresh engine gets this many times the workload's budget.
FRESH_BUDGET_FACTOR = 4
MAX_REPORTED = 5


def _cap(found: List[str], what: str) -> List[str]:
    if len(found) > MAX_REPORTED:
        return found[:MAX_REPORTED] + [
            f"... {len(found) - MAX_REPORTED} more {what}"]
    return found


def subset_of_andersen(
    answers: Iterable[Tuple[int, FrozenSet[int]]],
    andersen_pts: Callable[[int], FrozenSet[int]],
    label: Callable[[int], str] = str,
) -> List[str]:
    """``answers`` are ``(variable, objects)`` pairs; ``andersen_pts``
    maps a variable to its whole-program Andersen set."""
    found = []
    for var, objs in answers:
        extra = objs - andersen_pts(var)
        if extra:
            found.append(f"{label(var)}: objects {sorted(extra)} are not "
                         "in the Andersen solution")
    return _cap(found, "answers outside Andersen")


def sample(items: List, k: int, seed: int) -> List:
    """A seeded sample of ``k`` items (all of them when fewer)."""
    if len(items) <= k:
        return list(items)
    return random.Random(seed).sample(items, k)


def equal_to_fresh_engine(
    pag,
    config: EngineConfig,
    answers: Iterable[Tuple[int, FrozenSet, bool]],
    key: Callable[[FrozenSet], Hashable] = lambda pts: pts,
) -> Tuple[List[str], int]:
    """``answers`` are ``(variable, points_to, exhausted)`` triples.
    ``key`` maps the fresh engine's ``(object, ctx)`` pairs to the form
    the answers carry (e.g. object names, for the wire).  Returns the
    violations and the number of answers actually compared."""
    fresh = CFLEngine(
        pag, config.with_(budget=config.budget * FRESH_BUDGET_FACTOR))
    found, compared = [], 0
    for var, got, exhausted in answers:
        if exhausted:
            continue
        ref = fresh.points_to(var)
        if ref.exhausted:
            continue
        compared += 1
        want = key(ref.points_to)
        if got != want:
            found.append(f"node {var}: answer {sorted(got)} != fresh "
                         f"engine {sorted(want)}")
    return _cap(found, "answers unequal to a fresh engine"), compared


def exactly_once(submitted: Iterable[Hashable],
                 answered: Iterable[Hashable]) -> List[str]:
    """Multiset equality of submitted and answered query keys."""
    want, got = Counter(submitted), Counter(answered)
    found = []
    for k in want.keys() | got.keys():
        if want[k] != got[k]:
            found.append(f"query {k}: submitted {want[k]}x, answered "
                         f"{got[k]}x")
    return _cap(found, "queries not answered exactly once")


def alias_agrees(
    verdicts: Dict[Tuple[str, str], bool],
    points_to: Dict[str, Tuple[FrozenSet, bool]],
) -> List[str]:
    """``verdicts`` maps ``(a, b)`` to the daemon's may-alias verdict;
    ``points_to`` maps a spec to ``(objects, exhausted)``.  An exhausted
    side makes ``True`` the only sound verdict."""
    found = []
    for (a, b), verdict in verdicts.items():
        if a not in points_to or b not in points_to:
            found.append(f"alias({a}, {b}): no points-to answer for a side")
            continue
        (oa, ea), (ob, eb) = points_to[a], points_to[b]
        want = ea or eb or bool(oa & ob)
        if verdict != want:
            found.append(f"alias({a}, {b}) = {verdict}, points-to sets "
                         f"say {want}")
    return _cap(found, "alias verdicts")
