"""Seeded input generator for the end-to-end benchmark.

Every input a workload feeds the program is made here from one integer
seed: the mini-Java program text (a Table-I-shaped program from
``repro.benchgen`` written out with ``program_to_source``), the query
order, the ``serve`` request script and the ``edit`` held-back edge
script.  The program under test only ever sees the generated text and
the query specs, requests and edits derived from it.

Run standalone to write the inputs of one seed to a directory::

    PYTHONPATH=src python3 perfbench/gen.py --seed 7 --out .bench_out/inputs
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import re
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

from repro.benchgen.suites import spec_of
from repro.benchgen.synthesis import synthesize_program
from repro.ir.printer import program_to_source

#: Table I recipe every workload scales.
RECIPE = "tomcat"
#: Application classes of the `batch`/`batch-mp` program: 4x tomcat's 16.
BIG_APPS = 64
#: Application classes of the `serve`/`edit` program: tomcat's own size.
SMALL_APPS = 16

#: serve: the distinct analysis requests every client sends once per
#: round (each client in its own seeded order), the alias share and the
#: number of closed-loop clients.  Both clients send the same requests,
#: so their rounds last about as long and neither waits long for the
#: other at a round's end; a round of both is 100 requests.
SERVE_REQUESTS = 50
SERVE_ALIAS_SHARE = 0.2
SERVE_MAX_TARGETS = 8
SERVE_ZIPF_S = 1.1
SERVE_CLIENTS = 2

#: edit: held-back share of application assign/load/store statements,
#: rounds, and size of the "open file" query set re-answered each round.
EDIT_HELD_SHARE = 0.08
EDIT_ROUNDS = 40
EDIT_OPEN_QUERIES = 50

#: The hostile slice sent after each round: (name, kind, body).  Fixed,
#: so that their outcome does not depend on the seed; the correct outcome
#: of each is a 4xx.  ``raw_length`` sends the body under a non-integer
#: Content-Length header.  -2534 wraps, as a Python list index, onto
#: node 1 of the 2,535-node serve program, a variable (-1 would wrap
#: onto an object node, which the engine already refuses).
HOSTILE: Tuple[Tuple[str, str, object], ...] = (
    ("out_of_range_node", "json", {"targets": [10 ** 9]}),
    ("bad_content_length", "raw_length", "{}"),
    ("negative_node", "json", {"targets": [-2534]}),
    ("bool_node", "json", {"targets": [True]}),
)


def sub_seed(seed: int, salt: str) -> int:
    """A stable per-purpose seed (``hash`` of a str is salted per
    process, so it cannot be used here)."""
    value = seed * 1_000_003
    for ch in salt:
        value = (value * 31 + ord(ch)) % (2 ** 61 - 1)
    return value


def program_text(n_app_classes: int) -> Tuple[str, List[str]]:
    """The ``.mj`` text of the tomcat recipe (its own synthesis seed)
    with ``n_app_classes`` application classes, and the specs of every
    application local (the paper's batch workload) in program order.

    The program does not vary with the benchmark seed: the engine's
    counts (steps, makespan, answers) then repeat exactly from run to
    run, while the seed varies everything else the program receives
    (query order, request script, held-back edges).  Across synthesis
    seeds the same recipe's step count spreads by about a fifth, which
    would swamp every bound."""
    params = dataclasses.replace(
        spec_of(RECIPE).params, n_app_classes=n_app_classes
    )
    program = synthesize_program(params)
    specs = [
        f"{var}@{cls.name}.{meth.name}"
        for cls in program.classes.values()
        if cls.is_app
        for meth in cls.methods.values()
        for var in meth.locals
    ]
    return program_to_source(program), specs


def engine_budget() -> Dict[str, int]:
    """The suite's scaled budget and tau_F/tau_U for the recipe."""
    spec = spec_of(RECIPE)
    return {"budget": spec.budget, "tau_f": spec.tau_f, "tau_u": spec.tau_u}


def shuffled(items: List[str], seed: int, salt: str) -> List[str]:
    out = list(items)
    random.Random(sub_seed(seed, salt)).shuffle(out)
    return out


# ----------------------------------------------------------------------
# serve request script
# ----------------------------------------------------------------------
def _zipf_sampler(n: int, rng: random.Random):
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_S for rank in range(n)]
    return lambda k: rng.choices(range(n), weights=weights, k=k)


def serve_script(seed: int, specs: List[str]):
    """``(warm_up, rounds)``: per client, the analysis requests of its
    untimed warm-up (the pool split between the clients) and of one
    round of its closed loop (the whole pool in the client's own seeded
    order).  Each entry is ``{"path", "body"}``.  The hostile slice
    (:data:`HOSTILE`) is not part of the script: the workload sends it
    between rounds.

    The pool is drawn once, independently of the seed: targets
    Zipf-skewed over a fixed ranking of the application locals, so
    popular variables repeat across requests and hit the daemon's
    resident jump map.  The seed orders it.  A few targets exhaust the
    75,000-step budget and cost orders of magnitude more than the rest,
    so a seeded draw of the targets themselves would make the work of a
    round swing by a factor of four from seed to seed."""
    rng = random.Random(sub_seed(0, "serve"))
    ranking = shuffled(specs, 0, "serve-rank")
    draw = _zipf_sampler(len(ranking), rng)
    pool: List[dict] = []
    for _ in range(SERVE_REQUESTS):
        if rng.random() < SERVE_ALIAS_SHARE:
            a, b = draw(2)
            pool.append({"path": "/v1/alias",
                         "body": {"a": ranking[a], "b": ranking[b]}})
        else:
            targets = [ranking[i] for i in draw(
                rng.randint(1, SERVE_MAX_TARGETS))]
            pool.append({"path": "/v1/points_to",
                         "body": {"targets": targets}})
    warm_up = [pool[c::SERVE_CLIENTS] for c in range(SERVE_CLIENTS)]
    rounds = []
    for c in range(SERVE_CLIENTS):
        mine = list(pool)
        random.Random(sub_seed(seed, f"serve{c}")).shuffle(mine)
        rounds.append(mine)
    return warm_up, rounds


# ----------------------------------------------------------------------
# edit script
# ----------------------------------------------------------------------
class Edit(NamedTuple):
    """One held-back PAG edge, named by source-level specs."""

    kind: str  # "assign" | "load" | "store"
    dst: str  # assign/load target, or store base
    src: str  # assign/load source, or store value
    field: str  # "" for assign


_STMT = re.compile(
    r"^    (?:(?P<lhs>\w+) = (?P<rhs>\w+)(?:\.(?P<lf>\w+))?"
    r"|(?P<base>\w+)\.(?P<sf>\w+) = (?P<val>\w+))$"
)
_HEAD = re.compile(r"^(?:library )?class (\w+)")
_METH = re.compile(r"^  (?:static )?method (\w+)\(")


def edit_inputs(text: str, specs: List[str]):
    """Split ``text`` into a partial program (held-back statements
    removed) and a round-by-round edit script that restores them.

    Which statements are held back and which queries make up the "open
    file" set are fixed; the seed orders the edits into rounds (see
    :func:`edit_rounds`).  Seeded choices of the open set or of the
    held-back edges moved the work of a pass by a quarter from seed to
    seed (steps 505k to 644k over five seeds), more than any bound could
    absorb.

    Only application-local ``x = y``, ``x = y.f`` and ``x.f = y`` lines
    are held back: they declare no node, so node numbering of the
    partial program equals the full program's, and each maps onto one
    ``Session.seq.add_*_edge`` call.  Returns ``(partial_text, edits,
    open_specs)``."""
    local_specs = set(specs)
    lines = text.split("\n")
    candidates: List[Tuple[int, Edit]] = []
    cls = meth = ""
    app = False
    for i, line in enumerate(lines):
        head = _HEAD.match(line)
        if head:
            cls, app = head.group(1), not line.startswith("library")
            continue
        m = _METH.match(line)
        if m:
            meth = m.group(1)
            continue
        s = _STMT.match(line)
        if not (s and app):
            continue
        scope = f"@{cls}.{meth}"
        if s.group("lhs"):
            if s.group("rhs") == "new":
                continue
            dst, src = s.group("lhs") + scope, s.group("rhs") + scope
            edit = (Edit("load", dst, src, s.group("lf")) if s.group("lf")
                    else Edit("assign", dst, src, ""))
        else:
            edit = Edit("store", s.group("base") + scope,
                        s.group("val") + scope, s.group("sf"))
        if edit.dst in local_specs and edit.src in local_specs:
            candidates.append((i, edit))
    n_held = max(EDIT_ROUNDS, round(EDIT_HELD_SHARE * len(candidates)))
    held = sorted(random.Random(sub_seed(0, "edit")).sample(
        candidates, n_held))
    dropped = {i for i, _ in held}
    partial = "\n".join(l for i, l in enumerate(lines) if i not in dropped)
    edits = [e for _, e in held]
    open_specs = shuffled(specs, 0, "edit-open")[:EDIT_OPEN_QUERIES]
    return partial, edits, open_specs


def edit_rounds(seed: int, edits: List[Edit], n: int) -> List[List[Edit]]:
    """The edits of pass ``n`` dealt into rounds in a seeded order.  Each
    pass of a run takes another order: the order moves the work of a
    pass by about a seventh, and a run's median over several orders
    moves much less."""
    order = list(edits)
    random.Random(sub_seed(seed, f"edit{n}")).shuffle(order)
    return [order[r::EDIT_ROUNDS] for r in range(EDIT_ROUNDS)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    big, big_specs = program_text(BIG_APPS)
    small, small_specs = program_text(SMALL_APPS)
    partial, edits, open_specs = edit_inputs(small, small_specs)
    (out / "batch.mj").write_text(big)
    (out / "batch_queries.json").write_text(
        json.dumps(shuffled(big_specs, args.seed, "batch"), indent=0))
    (out / "serve.mj").write_text(small)
    warm_up, serve_rounds = serve_script(args.seed, small_specs)
    (out / "serve_script.json").write_text(
        json.dumps({"warm_up": warm_up, "rounds": serve_rounds}, indent=1))
    (out / "edit_partial.mj").write_text(partial)
    (out / "edit_script.json").write_text(json.dumps(
        {"open": open_specs,
         "first_pass_rounds": edit_rounds(args.seed, edits, 0)}, indent=1))
    print(f"wrote inputs of seed {args.seed} to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
