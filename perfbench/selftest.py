"""Self-tests of the benchmark's correctness checks.

Each check must pass on the program's real answers and fail on a
corrupted copy: an object added, an object dropped, a query lost, a
query duplicated, an alias verdict flipped.  Run from the repository
root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import gen  # noqa: E402
from repro.api import (  # noqa: E402
    AndersenSolver,
    CFLEngine,
    EngineConfig,
    Query,
    Session,
)

N_QUERIES = 300


class Fixture:
    """A real batch on the tomcat program, its Andersen solution and
    the fresh-engine reference answers."""

    def __init__(self) -> None:
        text, specs = gen.program_text(gen.SMALL_APPS)
        self.cfg = EngineConfig(**gen.engine_budget())
        self.session = Session.from_source(text, engine=self.cfg)
        self.pag = self.session.pag
        order = gen.shuffled(specs, 1, "selftest")[:N_QUERIES]
        self.queries = [Query(self.session.resolve(s)) for s in order]
        self.batch = self.session.batch(self.queries)
        self.results = self.batch.results
        self.andersen = AndersenSolver(self.pag).solve()
        every = set()
        for r in self.results:
            every |= self.andersen.points_to(r.query.var)
        self.objects = every

    def pts(self, var: int):
        return self.andersen.points_to(var)

    def triples(self, results):
        return [(r.query.var, r.points_to, r.exhausted) for r in results]

    def complete_with_objects(self):
        """Answers both sides complete on, holding at least one object."""
        fresh = CFLEngine(self.pag, self.cfg.with_(
            budget=self.cfg.budget * checks.FRESH_BUDGET_FACTOR))
        return [r for r in self.results
                if not r.exhausted and r.points_to
                and not fresh.points_to(r.query.var).exhausted][:20]


def test_subset(fx: Fixture) -> None:
    answers = [(r.query.var, r.objects) for r in fx.results]
    assert checks.subset_of_andersen(answers, fx.pts) == []
    var, objs = answers[0]
    outside = min(fx.objects - fx.pts(var))
    bad = [(var, objs | {outside})] + answers[1:]
    assert checks.subset_of_andersen(bad, fx.pts), "added object missed"


def test_fresh_engine(fx: Fixture) -> None:
    picked = fx.complete_with_objects()
    assert picked, "no complete non-empty answer to corrupt"
    found, compared = checks.equal_to_fresh_engine(
        fx.pag, fx.cfg, fx.triples(picked))
    assert found == [] and compared == len(picked)
    var, pts, _e = fx.triples(picked)[0]
    dropped = [(var, frozenset(sorted(pts)[1:]), False)]
    assert checks.equal_to_fresh_engine(fx.pag, fx.cfg, dropped)[0], \
        "dropped object missed"
    added = [(var, pts | {(min(fx.objects - fx.pts(var)), ())}, False)]
    assert checks.equal_to_fresh_engine(fx.pag, fx.cfg, added)[0], \
        "added object missed"


def test_exactly_once(fx: Fixture) -> None:
    submitted = [(fx.pag.rep(q.var), q.ctx) for q in fx.queries]
    answered = [(r.query.var, r.query.ctx) for r in fx.results]
    assert checks.exactly_once(submitted, answered) == []
    assert checks.exactly_once(submitted, answered[1:]), "lost query missed"
    assert checks.exactly_once(submitted, answered + answered[:1]), \
        "duplicated query missed"


def test_alias(fx: Fixture) -> None:
    a, b = fx.results[0], fx.results[1]
    pts = {"a": (a.objects, a.exhausted), "b": (b.objects, b.exhausted)}
    truth = a.exhausted or b.exhausted or bool(a.objects & b.objects)
    assert checks.alias_agrees({("a", "b"): truth}, pts) == []
    assert checks.alias_agrees({("a", "b"): not truth}, pts), \
        "flipped alias verdict missed"


def main() -> int:
    fx = Fixture()
    failed = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test(fx)
                print(f"ok   {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
