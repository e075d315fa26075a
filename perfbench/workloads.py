"""The four workloads: ``batch``, ``batch-mp``, ``serve`` and ``edit``.

Each drives the program only from outside — through ``repro.api`` or
through the ``repro serve`` command line and its HTTP protocol — with
inputs from :mod:`gen`.  Each returns an :class:`Outcome`: operations
attempted and failed, the end-to-end metrics, the per-layer metrics
(filled only by a traced run) and any correctness violations.

Counts that depend on how long a run lasts would change with host
speed, so ``steps`` and ``answered`` are per *round*: one pass over the
workload's fixed operation set (one cold batch; the first 16-batch
pass; one round of both clients' request scripts; one 40-round edit
pass).
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import os
import pickle
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks
import gen
from repro.api import (
    AndersenSolver,
    EngineConfig,
    MetricsRecorder,
    Query,
    RuntimeConfig,
    Session,
    build_pag,
    parse_program,
    schedule_queries,
)

#: Session opens (daemon boots for `serve`) per run; setup_s is their
#: median.  On a 2-CPU host one open of the 4x program takes 0.37 s in
#: one stretch of seconds and 0.75 s in the next, so the in-process
#: workloads open in SETUP_GROUPS groups spread over the run (before
#: the timed phase, after it, after the checks) rather than back to back.
SETUP_REPS = 9
SETUP_GROUPS = 3
#: batch-mp: batches per pass over the queries, and mp workers (nproc).
MP_BATCHES = 16
MP_WORKERS = 2
#: Answers per run compared against a fresh share-nothing engine.
FRESH_SAMPLE = 48
#: serve sends its fresh-engine sample at 4x the daemon's 75,000 budget,
#: so fewer targets keep the check inside the run's time limit.
SERVE_FRESH_SAMPLE = 16
#: serve (traced run): a /healthz probe after every Nth request.
INTAKE_PROBE_EVERY = 4
#: serve and edit: a run continues past --seconds until it has this many
#: latency samples, so that at least ten lie beyond the p95.
MIN_SAMPLES = 200
#: Below this many samples a run reports its median as p95_ms: a 95th
#: percentile of fewer samples is no tail.
MIN_TAIL_SAMPLES = 40
#: Seconds to wait for a daemon to boot or to exit after a drain.
DAEMON_WAIT = 60.0

REPO = Path(__file__).resolve().parent.parent
OUT = REPO / ".bench_out"


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


def _median(values) -> float:
    return float(statistics.median(values))


def _p95(values) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return float(ordered[max(0, -(-95 * len(ordered) // 100) - 1)])


def _latencies(out: Outcome, seconds: List[float], what: str) -> None:
    out.metrics["p50_ms"] = _median(seconds) * 1e3
    if len(seconds) < MIN_TAIL_SAMPLES:
        out.metrics["p95_ms"] = out.metrics["p50_ms"]
        out.notes.append(f"latency of one {what}: {len(seconds)} samples, "
                         "too few for a tail: p95_ms reports the median")
        return
    out.metrics["p95_ms"] = _p95(seconds) * 1e3
    beyond = len(seconds) - -(-95 * len(seconds) // 100)
    out.notes.append(f"latency of one {what}: {len(seconds)} samples, "
                     f"{beyond} beyond p95")


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _open(text: str, tr, **kw) -> Tuple[Session, float]:
    """Program text to a ready session: parse, lower, adopt.  Split
    into the two front-end calls so a traced run sees each."""
    t0 = time.perf_counter()
    with tr.span("open", "api", op=tr.new_op()):
        with tr.span("parse_program", "frontend.parse"):
            program = parse_program(text)
        with tr.span("build_pag", "frontend.lower"):
            build = build_pag(program)
        session = Session.from_build(build, **kw)
    return session, time.perf_counter() - t0


def _setup(setups: List[float], text: str, tr, **kw) -> Session:
    """One group of opens of ``text``, their times appended to
    ``setups``; returns the last session.  Each open starts from a
    collected heap, so that the garbage of the previous one is not
    collected inside its time."""
    for _ in range(SETUP_REPS // SETUP_GROUPS):
        session = None  # let the previous open's session be collected
        gc.collect()
        session, dt = _open(text, tr, **kw)
        setups.append(dt)
    return session


def _frontend_layers(out: Outcome, tr) -> None:
    """Front-end per-layer metrics from the open spans (medians)."""
    for name, key in (("parse_program", "frontend.parse_s"),
                      ("build_pag", "frontend.lower_s")):
        durations = [s.end - s.start for s in tr.spans if s.name == name]
        out.layer[key] = _median(durations)


def _schedule_layer(out: Outcome, session: Session, queries, tr) -> None:
    """A standalone timed ``schedule_queries`` call on the workload's
    queries (median of three)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        with tr.span("schedule_queries", "sched", op=tr.new_op()):
            schedule_queries(session.pag, queries, session.build.program.types)
        times.append(time.perf_counter() - t0)
    out.layer["sched.schedule_s"] = _median(times)


def _engine_layers(out: Outcome, counters: Dict[str, float]) -> None:
    for key in ("engine.steps", "engine.work", "engine.sweeps",
                "engine.exhausted", "jumps.hits"):
        out.layer[key] = counters.get(key, 0)
    lookups = counters.get("jumps.lookups", 0)
    out.layer["jumps.hit_ratio"] = (
        counters.get("jumps.hits", 0) / lookups if lookups else 0.0)


def _andersen(text: str, pag, tr):
    """``AndersenSolver``'s whole-program solution for the program
    ``text`` (lowered to ``pag``).  Solving the 4x program takes about
    7 s, a quarter of a `batch` run, and the solution depends only on
    the text and the program's code, so it is kept under ``.bench_out/``
    keyed by a hash of both: each checkout solves each program once."""
    digest = hashlib.sha256(text.encode())
    src = REPO / "src" / "repro"
    for py in sorted(src.rglob("*.py")):
        digest.update(str(py.relative_to(src)).encode())
        digest.update(py.read_bytes())
    path = OUT / f"andersen-{digest.hexdigest()[:24]}.pickle"
    with tr.span("andersen", "check", op=tr.new_op()):
        if path.is_file():
            return pickle.loads(path.read_bytes())
        result = AndersenSolver(pag).solve()
    OUT.mkdir(exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(pickle.dumps(result))
    tmp.replace(path)
    return result


# ----------------------------------------------------------------------
# batch and batch-mp: the paper's batch mode through Session.batch
# ----------------------------------------------------------------------
def _batch_inputs(seed: int):
    text, specs = gen.program_text(gen.BIG_APPS)
    return text, gen.shuffled(specs, seed, "batch")


def _exactly_once(pag, submitted, result) -> List[str]:
    return checks.exactly_once(
        [(pag.rep(q.var), q.ctx) for q in submitted],
        [(e.result.query.var, e.result.query.ctx)
         for e in result.executions])


def _check_batches(out: Outcome, text: str, session: Session,
                   cfg: EngineConfig, results, seed: int, tr) -> None:
    """Subset-of-Andersen on every answer of ``results`` and a
    fresh-engine comparison on a seeded sample of them."""
    pag = session.pag
    andersen = _andersen(text, pag, tr)
    with tr.span("checks", "check", op=tr.new_op()):
        answers = [e.result for r in results for e in r.executions]
        out.violations += checks.subset_of_andersen(
            ((a.query.var, a.objects) for a in answers),
            andersen.points_to, session.name)
        picked = checks.sample(answers, FRESH_SAMPLE, seed)
        found, compared = checks.equal_to_fresh_engine(
            pag, cfg, ((r.query.var, r.points_to, r.exhausted)
                       for r in picked))
    out.violations += found
    out.notes.append(f"fresh-engine check: {compared} of {len(picked)} "
                     "sampled answers compared (both sides complete)")


def run_batch(seed: int, seconds: float, tr) -> Outcome:
    """Cold DQ batches on fresh sessions, default configuration (16
    simulated workers on the sim backend)."""
    out = Outcome()
    text, order = _batch_inputs(seed)
    cfg = EngineConfig(**gen.engine_budget())
    rec = MetricsRecorder() if tr.enabled else None
    setups: List[float] = []
    session = _setup(setups, text, tr, engine=cfg, recorder=rec)
    build = session.build
    queries = [Query(session.resolve(s)) for s in order]
    del session

    first = None
    latencies: List[float] = []
    n = 0
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < seconds:
        # A cold batch starts from a collected heap, as in a fresh
        # process: the previous batch's garbage is not collected in it.
        gc.collect()
        op = tr.new_op()
        t0 = time.perf_counter()
        with tr.span("batch", "workload", op=op):
            fresh = Session.from_build(build, engine=cfg, recorder=rec)
            with tr.span("Session.batch", "api"):
                result = fresh.batch(queries)
        latencies.append(time.perf_counter() - t0)
        n += result.n_queries
        out.violations += _exactly_once(build.pag, queries, result)
        # The sim executor is deterministic: every cold batch of a run
        # must do the same work and give the same answers, so only the
        # first is kept for the remaining checks.
        if first is None:
            first = result
        elif (result.total_steps, result.makespan,
              result.points_to_map()) != (
                  first.total_steps, first.makespan,
                  first.points_to_map()):
            out.violations.append(
                f"cold batches differ: steps {result.total_steps} vs "
                f"{first.total_steps}, makespan {result.makespan} vs "
                f"{first.makespan}, or their answers")
        del fresh, result
    _setup(setups, text, tr, engine=cfg, recorder=rec)
    out.metrics["peak_rss_mb"] = _rss_mb(resource.RUSAGE_SELF)
    out.attempted = n
    out.metrics["ops_per_s"] = n / sum(latencies)
    _latencies(out, latencies, "cold batch")
    out.metrics["steps"] = first.total_steps
    out.metrics["answered"] = first.n_queries - first.n_exhausted
    out.notes.append(
        f"batch: {len(queries)} queries on {build.pag.n_nodes} nodes / "
        f"{build.pag.n_edges} edges; makespan_steps {first.makespan:.3f}")
    if tr.enabled:
        _frontend_layers(out, tr)
        _schedule_layer(out, Session.from_build(build, engine=cfg),
                        queries, tr)
        _engine_layers(out, first.metrics)
        out.layer["sim.utilisation"] = first.utilisation
        out.layer["sim.makespan_steps"] = first.makespan
    _check_batches(out, text, Session.from_build(build, engine=cfg), cfg,
                   [first], seed, tr)
    _setup(setups, text, tr, engine=cfg, recorder=rec)
    out.metrics["setup_s"] = _median(setups)
    return out


def run_batch_mp(seed: int, seconds: float, tr) -> Outcome:
    """The same program and queries as successive smaller batches to
    one resident session on the mp backend with two workers."""
    out = Outcome()
    text, order = _batch_inputs(seed)
    cfg = EngineConfig(**gen.engine_budget())
    runtime = RuntimeConfig(backend="mp", n_threads=MP_WORKERS)
    rec = MetricsRecorder() if tr.enabled else None
    setups: List[float] = []
    session = _setup(setups, text, tr, engine=cfg, runtime=runtime,
                     recorder=rec)
    queries = [Query(session.resolve(s)) for s in order]
    n = len(queries)
    chunks = [queries[i * n // MP_BATCHES:(i + 1) * n // MP_BATCHES]
              for i in range(MP_BATCHES)]

    # Only the first pass's results are kept (for the counts and the
    # checks); a later pass's answers are checked for exactly-once and
    # against the first pass's (complete answers are exact, so they must
    # be equal), then dropped, so peak RSS does not grow with passes.
    first: List = []
    known: Dict[Tuple[int, tuple], frozenset] = {}
    busy: List[Tuple[float, float]] = []
    latencies: List[float] = []
    passes = done = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        for chunk in chunks:
            if passes and time.perf_counter() - start >= seconds:
                break  # after the first pass, stop at a batch boundary
            op = tr.new_op()
            t0 = time.perf_counter()
            with tr.span("batch", "workload", op=op):
                with tr.span("Session.batch", "api"):
                    result = session.batch(chunk)
            latencies.append(time.perf_counter() - t0)
            done += result.n_queries
            busy.append((latencies[-1], max(result.worker_busy, default=0.0)))
            out.violations += _exactly_once(session.pag, chunk, result)
            if not passes:
                first.append(result)
            else:
                for a in result.results:
                    want = known.get((a.query.var, a.query.ctx))
                    if want is not None and not a.exhausted and \
                            a.points_to != want:
                        out.violations.append(
                            f"{session.name(a.query.var)}: pass "
                            f"{passes + 1} answer differs from pass 1")
            del result
        if not passes:
            known = {(a.query.var, a.query.ctx): a.points_to
                     for r in first for a in r.results if not a.exhausted}
        passes += 1
    _setup(setups, text, tr, engine=cfg, runtime=runtime, recorder=rec)
    out.metrics["peak_rss_mb"] = (_rss_mb(resource.RUSAGE_SELF)
                                  + _rss_mb(resource.RUSAGE_CHILDREN))
    out.attempted = done
    out.metrics["ops_per_s"] = out.attempted / sum(latencies)
    _latencies(out, latencies, "batch")
    out.metrics["steps"] = sum(r.total_steps for r in first)
    out.metrics["answered"] = sum(r.n_queries - r.n_exhausted for r in first)
    out.notes.append(f"batch-mp: {passes} pass(es) of {MP_BATCHES} "
                     f"batches of ~{n // MP_BATCHES} queries")
    if tr.enabled:
        _frontend_layers(out, tr)
        _schedule_layer(out, session, queries, tr)
        totals: Dict[str, float] = {}
        for r in first:
            for key, value in r.metrics.items():
                totals[key] = totals.get(key, 0) + value
        _engine_layers(out, totals)
        out.layer["mp.batch_overhead_s"] = _median([t - b for t, b in busy])
        out.layer["mp.worker_busy_s"] = _median([b for _t, b in busy])
        for key in ("mp.epoch_ships", "mp.delta_bytes_shipped",
                    "mp.merge_conflicts"):
            out.layer[key] = totals.get(key, 0)
    _check_batches(out, text, session, cfg, first, seed, tr)
    _setup(setups, text, tr, engine=cfg, runtime=runtime, recorder=rec)
    out.metrics["setup_s"] = _median(setups)
    return out


# ----------------------------------------------------------------------
# serve: the daemon over HTTP
# ----------------------------------------------------------------------
_READY = re.compile(r"on http://([^:\s]+):(\d+)")


class _Daemon:
    """``repro serve FILE --port 0`` as a child process."""

    def __init__(self, path: Path, log: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._log = open(log, "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(path),
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log, env=env, cwd=REPO)
        line = self._readline()
        self.boot_s = time.perf_counter() - t0
        m = _READY.search(line)
        if not m:
            self.kill()
            raise RuntimeError(f"daemon did not become ready: {line!r}")
        self.host, self.port = m.group(1), int(m.group(2))

    def _readline(self) -> str:
        box: List[bytes] = []
        reader = threading.Thread(
            target=lambda: box.append(self.proc.stdout.readline()),
            daemon=True)
        reader.start()
        reader.join(DAEMON_WAIT)
        return box[0].decode(errors="replace") if box else ""

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=DAEMON_WAIT)

    def drain(self) -> Tuple[Optional[int], str]:
        """POST /admin/drain on a fresh connection and wait for exit."""
        conn = self.connect()
        try:
            conn.request("POST", "/admin/drain", body=b"{}",
                         headers={"Content-Type": "application/json"})
            conn.getresponse().read()
        finally:
            conn.close()
        try:
            rest, _ = self.proc.communicate(timeout=DAEMON_WAIT)
        except subprocess.TimeoutExpired:
            self.kill()
            return None, "daemon did not exit after drain"
        self._log.close()
        return self.proc.returncode, rest.decode(errors="replace")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()
        self._log.close()


def _request(conn, method: str, path: str, body: Optional[bytes],
             headers: Optional[dict] = None):
    """One request on a keep-alive connection: ``(status, json)``; a
    dropped connection gives ``(None, None)``."""
    try:
        conn.request(method, path, body=body,
                     headers=headers or {"Content-Type": "application/json"})
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, (json.loads(raw) if raw else None)
    except (http.client.HTTPException, OSError, ValueError):
        conn.close()
        return None, None


def _hostile(conn, name: str):
    """Send one hostile request; returns its status (``None`` when the
    daemon dropped the connection)."""
    kind, body = {n: (k, b) for n, k, b in gen.HOSTILE}[name]
    if kind == "raw_length":
        data = body.encode()
        try:
            conn.putrequest("POST", "/v1/points_to")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "abc")
            conn.endheaders(data)
            resp = conn.getresponse()
            resp.read()
            status = resp.status
        except (http.client.HTTPException, OSError):
            status = None
        # The body length was never declared: never reuse the socket.
        conn.close()
        return status
    status, _ = _request(conn, "POST", "/v1/points_to",
                         json.dumps(body).encode())
    return status


class _Client(threading.Thread):
    """One closed-loop caller: sends its next request only after the
    reply to the previous one, whole rounds of its script at a time.
    With a ``rounds`` coordinator it waits for the other clients at the
    end of each round and stops when the coordinator says so; without
    one it runs a single round."""

    def __init__(self, daemon: _Daemon, script: List[dict], tr,
                 probe: bool, rounds: Optional["_Rounds"] = None) -> None:
        super().__init__(daemon=True)
        self.d, self.script, self.tr, self.probe = daemon, script, tr, probe
        self.coordinator = rounds
        self.latencies: List[float] = []
        self.intake: List[float] = []
        self.answers: List[Tuple[str, frozenset, bool, int]] = []
        self.aliases: List[Tuple[str, str, bool]] = []
        self.attempted = self.failed = 0
        self.errors: List[str] = []
        self.round_steps: List[int] = []
        self.round_answered: List[int] = []
        # Exactly-once keys: (request number, target, is points-to) for
        # each target a request sent; (request number, target) for each
        # result the daemon returned, plus the node it resolved a
        # points-to target to.
        self.sent: List[tuple] = []
        self.returned: List[tuple] = []

    def run(self) -> None:
        conn = self.d.connect()
        try:
            while True:
                self._round(conn)
                if self.coordinator is None or \
                        self.coordinator.round_done():
                    return
        except Exception as exc:  # recorded as a violation
            self.errors.append(f"client stopped: {exc!r}")
            if self.coordinator is not None:
                self.coordinator.barrier.abort()  # free the other clients
        finally:
            conn.close()

    def _round(self, conn) -> None:
        tr = self.tr
        steps = answered = 0
        for i, item in enumerate(self.script):
            self.attempted += 1
            n = self.attempted
            req = item["body"]
            points_to = item["path"] == "/v1/points_to"
            self.sent += [(n, t, points_to) for t in
                          (req["targets"] if points_to
                           else (req["a"], req["b"]))]
            body = json.dumps(req).encode()
            t0 = time.perf_counter()
            with tr.span(item["path"], "http", op=tr.new_op()):
                status, data = _request(conn, "POST", item["path"], body)
            self.latencies.append(time.perf_counter() - t0)
            if status != 200:
                self.failed += 1
                self.errors.append(f"{item['path']} -> {status}: {data}")
                continue
            if item["path"] == "/v1/alias":
                self.aliases.append((data["a"], data["b"], data["may_alias"]))
                self.returned += [(n, data["a"]), (n, data["b"])]
            else:
                for res in data["results"]:
                    self.returned.append((n, res["query"], res["node"]))
                    self.answers.append((res["query"],
                                         frozenset(res["objects"]),
                                         res["exhausted"], res["steps"]))
                    steps += res["steps"]
                    answered += not res["exhausted"]
            if self.probe and i % INTAKE_PROBE_EVERY == 0:
                t0 = time.perf_counter()
                with tr.span("/healthz", "http", op=tr.new_op()):
                    _request(conn, "GET", "/healthz", None)
                self.intake.append(time.perf_counter() - t0)
        self.round_steps.append(steps)
        self.round_answered.append(answered)


class _Rounds:
    """The timed phase of ``serve``: rounds that all clients start
    together.  When the last client ends a round, the hostile slice goes
    out on its own connection, with no analysis request in flight, and
    outside the timed phase; then the phase ends if it has lasted
    ``seconds`` and gathered :data:`MIN_SAMPLES` latencies.  So every
    run attempts whole rounds of the same requests, and a slow hostile
    answer delays no timed request."""

    def __init__(self, daemon: _Daemon, n_clients: int, seconds: float,
                 tr) -> None:
        self.d, self.seconds, self.tr = daemon, seconds, tr
        self.clients: List[_Client] = []
        self.barrier = threading.Barrier(n_clients, action=self._between)
        self.start = time.perf_counter()
        self.active = self.paused = 0.0
        self.done = False
        self.n = self.attempted = self.failed = 0
        self.hostile: Dict[str, Optional[int]] = {}

    def round_done(self) -> bool:
        """Called by each client at the end of its round; ``True`` when
        the timed phase is over."""
        self.barrier.wait()
        return self.done

    def _between(self) -> None:
        t0 = time.perf_counter()
        self.n += 1
        self.active = t0 - self.start - self.paused
        conn = self.d.connect()
        try:
            for name, _kind, _body in gen.HOSTILE:
                self.attempted += 1
                with self.tr.span(name, "http", op=self.tr.new_op()):
                    status = _hostile(conn, name)
                self.hostile[name] = status
                if status is None or not 400 <= status < 500:
                    self.failed += 1
        finally:
            conn.close()
        samples = sum(len(c.latencies) for c in self.clients)
        self.done = self.active >= self.seconds and samples >= MIN_SAMPLES
        self.paused += time.perf_counter() - t0


def _get(daemon: _Daemon, path: str):
    conn = daemon.connect()
    try:
        return _request(conn, "GET", path, None)[1]
    finally:
        conn.close()


def _post_points_to(daemon: _Daemon, specs: List[str]):
    """Points-to answers for ``specs`` (untimed, for the checks)."""
    out: Dict[str, Tuple[frozenset, bool]] = {}
    conn = daemon.connect()
    try:
        for i in range(0, len(specs), 32):
            body = json.dumps({"targets": specs[i:i + 32]}).encode()
            status, data = _request(conn, "POST", "/v1/points_to", body)
            if status != 200:
                raise RuntimeError(f"check request failed: {status} {data}")
            for res in data["results"]:
                out[res["query"]] = (frozenset(res["objects"]),
                                     res["exhausted"])
    finally:
        conn.close()
    return out


def run_serve(seed: int, seconds: float, tr) -> Outcome:
    """`repro serve` with its defaults, two closed-loop clients."""
    out = Outcome()
    text, specs = gen.program_text(gen.SMALL_APPS)
    warm_up, scripts = gen.serve_script(seed, specs)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"serve-{os.getpid()}.mj"
    path.write_text(text)
    log = OUT / f"serve-{os.getpid()}.log"

    daemons: List[_Daemon] = []
    try:
        for _ in range(SETUP_REPS):
            if daemons:
                code, _rest = daemons[-1].drain()
                if code != 0:
                    out.violations.append(f"setup daemon exited {code}")
            with tr.span("boot repro serve", "serve.boot", op=tr.new_op()):
                daemons.append(_Daemon(path, log))
        daemon = daemons[-1]
        out.metrics["setup_s"] = _median([d.boot_s for d in daemons])

        warm = [_Client(daemon, s, tr, False) for s in warm_up]
        for c in warm:
            c.start()
        for c in warm:
            c.join()
        before = _get(daemon, "/metricz") if tr.enabled else {}

        phase = _Rounds(daemon, len(scripts), seconds, tr)
        clients = phase.clients
        clients += [_Client(daemon, s, tr, tr.enabled, rounds=phase)
                    for s in scripts]
        for c in clients:
            c.start()
        for c in clients:
            c.join()
        after = _get(daemon, "/metricz") if tr.enabled else {}
        health = _get(daemon, "/healthz")

        out.attempted = phase.attempted + sum(c.attempted for c in clients)
        out.failed = phase.failed + sum(c.failed for c in clients)
        latencies = [x for c in clients for x in c.latencies]
        out.metrics["ops_per_s"] = len(latencies) / phase.active
        _latencies(out, latencies, "request")
        # Per round of all clients: the median over the run's rounds.
        out.metrics["steps"] = _median(
            [sum(r) for r in zip(*(c.round_steps for c in clients))])
        out.metrics["answered"] = _median(
            [sum(r) for r in zip(*(c.round_answered for c in clients))])
        for c in clients:
            out.violations += c.errors[:checks.MAX_REPORTED]
        out.notes.append(
            f"serve: {phase.n} rounds of {len(clients)} x "
            f"{len(scripts[0])} requests in {phase.active:.1f} s, "
            f"{phase.paused:.1f} s for the hostile slices; hostile "
            "outcomes " + ", ".join(
                f"{k}={v}" for k, v in sorted(phase.hostile.items())))

        if tr.enabled:
            delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
            _engine_layers(out, delta)
            batches = delta.get("serve.batches", 0)
            out.layer["serve.jobs_per_batch"] = (
                delta.get("serve.jobs", 0) / batches if batches else 0.0)
            out.layer["serve.steps_per_request"] = (
                delta.get("engine.steps", 0) / len(latencies))
            out.layer["serve.intake_ms"] = _median(
                [x for c in clients for x in c.intake]) * 1e3

        # -- checks against the live daemon, then drain ---------------
        answers = [a for c in clients for a in c.answers]
        sent = [(i,) + k for i, c in enumerate(clients) for k in c.sent]
        returned = [(i,) + k for i, c in enumerate(clients)
                    for k in c.returned]
        aliases = {(a, b): v for c in clients for a, b, v in c.aliases}
        sides = sorted({s for pair in aliases for s in pair})
        pts = _post_points_to(daemon, sides) if sides else {}
        code, rest = daemon.drain()
        if code != 0:
            out.violations.append(f"daemon exited {code} after drain: "
                                  f"{rest.strip()[-200:]}")
        daemons.clear()
        out.metrics["peak_rss_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)

        if health.get("api.pag_builds") != 1:
            out.violations.append(
                f"/healthz api.pag_builds = {health.get('api.pag_builds')}")
        _check_serve(out, text, seed, answers, aliases, pts,
                     (sent, returned), tr)
        if tr.enabled:
            local, _dt = _open(text, tr)
            _frontend_layers(out, tr)
            _schedule_layer(out, local, [Query(local.resolve(s))
                                         for s in sorted(set(specs))], tr)
    finally:
        for d in daemons:
            d.kill()
        path.unlink(missing_ok=True)
    return out


def _check_serve(out: Outcome, text: str, seed: int, answers, aliases,
                 pts, keys, tr) -> None:
    local = Session.from_source(text)
    pag = local.pag
    sent, returned = keys
    out.violations += checks.exactly_once(
        [(i, n, t) + ((local.resolve(t),) if points_to else ())
         for i, n, t, points_to in sent],
        returned)
    andersen = _andersen(text, pag, tr)
    named: Dict[int, frozenset] = {}

    def andersen_names(var: int) -> frozenset:
        if var not in named:
            named[var] = frozenset(
                pag.name(o) for o in andersen.points_to(pag.rep(var)))
        return named[var]

    with tr.span("checks", "check", op=tr.new_op()):
        seen: Dict[str, frozenset] = {}
        for spec, objs, exhausted, _steps in answers:
            if exhausted:
                continue
            if seen.setdefault(spec, objs) != objs:
                out.violations.append(
                    f"{spec}: two different complete answers")
        out.violations += checks.subset_of_andersen(
            ((local.resolve(s), objs) for s, objs, _e, _st in answers),
            andersen_names, local.name)
        out.violations += checks.alias_agrees(aliases, pts)
        distinct = sorted({(s, objs, e) for s, objs, e, _st in answers})
        picked = checks.sample(distinct, SERVE_FRESH_SAMPLE, seed)
        found, compared = checks.equal_to_fresh_engine(
            pag, EngineConfig(),
            ((local.resolve(s), objs, e) for s, objs, e in picked),
            key=lambda p: frozenset(pag.name(o) for o, _c in p))
    out.violations += found
    out.notes.append(f"fresh-engine check: {compared} of {len(picked)} "
                     "sampled answers compared (both sides complete)")


# ----------------------------------------------------------------------
# edit: an incremental session
# ----------------------------------------------------------------------
def run_edit(seed: int, seconds: float, tr) -> Outcome:
    """Rounds of held-back edges added through ``Session.seq``, each
    followed by re-answering a fixed "open file" query set."""
    out = Outcome()
    text, specs = gen.program_text(gen.SMALL_APPS)
    partial, edits, open_specs = gen.edit_inputs(text, specs)
    n_rounds = gen.EDIT_ROUNDS
    cfg = EngineConfig(**gen.engine_budget())
    rec = MetricsRecorder() if tr.enabled else None

    setups: List[float] = []
    _setup(setups, partial, tr, engine=cfg, recorder=rec)
    latencies: List[float] = []
    edit_s: List[float] = []
    requery_s: List[float] = []
    pass_steps: List[int] = []
    pass_answered: List[int] = []
    pass_counts: List[Dict[str, int]] = []
    all_answers: List[Tuple[int, frozenset]] = []
    # Exactly-once keys: (pass, round, query) for each query the round
    # asked, and for each answer the query the program says it answered.
    asked: List[Tuple[int, int, int, tuple]] = []
    keys: List[Tuple[int, int, int, tuple]] = []
    final: Dict[int, object] = {}
    costs = {"engine.steps": 0, "engine.work": 0, "engine.sweeps": 0,
             "engine.exhausted": 0, "jumps.hits": 0, "jumps.lookups": 0}
    timed = 0.0
    while timed < seconds or len(latencies) < MIN_SAMPLES:
        gc.collect()  # the previous pass's garbage, outside the rounds
        session, _dt = _open(partial, tr, engine=cfg, recorder=rec)
        seq = session.seq
        opened = [session.resolve(s) for s in open_specs]
        mark = rec.mark() if rec else None
        with tr.span("open-file queries", "inc.requery", op=tr.new_op()):
            prev = {v: seq.points_to(v) for v in opened}
        steps = answered = 0
        rounds = gen.edit_rounds(seed, edits, len(pass_steps))
        for r, batch in enumerate(rounds):
            op = tr.new_op()
            t0 = time.perf_counter()
            with tr.span("round", "workload", op=op):
                with tr.span("add edges", "inc.edit"):
                    for e in batch:
                        dst, src = session.resolve(e.dst), session.resolve(e.src)
                        if e.kind == "assign":
                            seq.add_assign_edge(dst, src)
                        elif e.kind == "load":
                            seq.add_load_edge(dst, src, e.field)
                        else:
                            seq.add_store_edge(dst, e.field, src)
                t1 = time.perf_counter()
                with tr.span("re-answer", "inc.requery"):
                    answers = [(v, seq.points_to(v)) for v in opened]
            t2 = time.perf_counter()
            latencies.append(t2 - t0)
            edit_s.append(t1 - t0)
            requery_s.append(t2 - t1)
            rep = session.pag.rep
            for v, res in answers:
                asked.append((len(pass_steps), r, rep(v), ()))
                keys.append((len(pass_steps), r, rep(res.query.var),
                             tuple(res.query.ctx)))
                all_answers.append((v, res.objects))
                answered += not res.exhausted
                if res is not prev[v]:  # computed, not served from cache
                    c = res.costs
                    steps += c.steps
                    costs["engine.steps"] += c.steps
                    costs["engine.work"] += c.work
                    costs["engine.sweeps"] += c.sweeps
                    costs["engine.exhausted"] += res.exhausted
                    costs["jumps.hits"] += c.jmp_taken
                    costs["jumps.lookups"] += c.jmp_lookups
            prev = now = dict(answers)
        timed += sum(latencies[-n_rounds:])
        pass_steps.append(steps)
        pass_answered.append(answered)
        if rec:
            pass_counts.append(rec.since(mark))
        final = now
        del session, seq
    _setup(setups, partial, tr, engine=cfg, recorder=rec)
    out.metrics["peak_rss_mb"] = _rss_mb(resource.RUSAGE_SELF)
    out.attempted = len(latencies)
    out.metrics["ops_per_s"] = len(latencies) / timed
    _latencies(out, latencies, "edit round")
    out.metrics["steps"] = _median(pass_steps)
    out.metrics["answered"] = _median(pass_answered)
    out.notes.append(
        f"edit: {len(pass_steps)} passes of {n_rounds} rounds, "
        f"{len(edits)} held-back edges, {len(open_specs)} open queries")
    if tr.enabled:
        _frontend_layers(out, tr)
        passes = len(pass_steps)
        _engine_layers(out, {k: v / passes for k, v in costs.items()})
        out.layer["inc.edit_ms"] = _median(edit_s) * 1e3
        out.layer["inc.requery_ms"] = _median(requery_s) * 1e3
        for key in ("inc.entries_invalidated", "inc.queries_invalidated",
                    "inc.queries_reused"):
            out.layer[key] = _median([c.get(key, 0) for c in pass_counts])

    # -- checks --------------------------------------------------------
    full = Session.from_source(text, engine=cfg)
    if tr.enabled:
        _schedule_layer(out, full, [Query(full.resolve(s))
                                    for s in open_specs], tr)
    pag = full.pag
    andersen = _andersen(text, pag, tr)
    with tr.span("checks", "check", op=tr.new_op()):
        out.violations += checks.exactly_once(asked, keys)
        out.violations += checks.subset_of_andersen(
            all_answers, lambda v: andersen.points_to(pag.rep(v)),
            full.name)
        for v, res in final.items():
            ref = full.points_to(v)
            if not (res.exhausted or ref.exhausted) and \
                    res.points_to != ref.points_to:
                out.violations.append(
                    f"{full.name(v)}: after the last edit {sorted(res.objects)}"
                    f" != fresh session {sorted(ref.objects)}")
        found, compared = checks.equal_to_fresh_engine(
            pag, cfg, ((v, r.points_to, r.exhausted)
                       for v, r in sorted(final.items())))
    out.violations += found
    out.notes.append(f"fresh-engine check: {compared} of {len(final)} final "
                     "answers compared (both sides complete)")
    _setup(setups, partial, tr, engine=cfg, recorder=rec)
    out.metrics["setup_s"] = _median(setups)
    return out


WORKLOADS = {
    "batch": run_batch,
    "batch-mp": run_batch_mp,
    "serve": run_serve,
    "edit": run_edit,
}
