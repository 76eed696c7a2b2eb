"""One workload in one fresh interpreter (started by ``run.py``).

Modes:

* ``measure`` -- set up (several times, median reported), run the timed
  window untraced, check every answer against an oracle, and report the
  end-to-end metrics (times normalised to a fixed host speed, see
  ``HostSpeed``);
* ``traced`` -- set up once, run the timed window with tracing switched
  on for half of it (alternate rounds in-process, the second half under
  ``serve-rw``), and report the per-layer metrics;
* ``digest`` -- only the plan digests of the workload's shapes, cold and
  warm, for the cross-hash-seed comparison.

The last line of standard output is one JSON object; diagnostics go to
standard error.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib.util
import json
import math
import os
import pickle
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro import (  # noqa: E402
    Engine,
    ReproError,
    ServeClient,
    parse_query,
    serve_in_thread,
)
from repro.db.database import Database  # noqa: E402
from repro.db.naive import naive_join_eval  # noqa: E402
from repro.generators.workloads import renamed_variant  # noqa: E402
from repro.serve import RateLimited, ServerOverloaded  # noqa: E402

from tracing import Recorder  # noqa: E402
from workloads import delta_stream, shapes_for, write_db  # noqa: E402

#: Setups per measuring run; setup_s is their median.
SETUP_REPEATS = 9
#: Share of the read time the in-process write probe runs for, after
#: every round; the most batches it applies in one run (keeping the write
#: tail at p90 however fast writes get).
PROBE_SHARE = 0.03
PROBE_MAX = 900
#: Open-loop arrival rate of serve-rw (requests per second over both
#: connections): under a third of the ~70/s the server sustains with this
#: mix on a 2-core machine.  At half of it the read tail swung twofold
#: between runs, and at 24/s latency still rose 2.5x in the host's slow
#: phases, as service times crossed the other connection's arrival.
SERVE_RATE = 20.0
#: Every WRITE_EVERY-th request of the writing connection is a delta;
#: the other connection only reads, so ~10% of all requests write.
WRITE_EVERY = 5
#: Tail percentile of reads and of writes per workload: the highest of
#: p99/p90/p75 with at least ten samples beyond it in a 25-second run.
#: Fixed, so that a faster or slower program does not switch percentile.
READ_TAIL = {"small-warm": 99, "large-join": 90, "plan-cold": 99, "serve-rw": 90}
WRITE_TAIL = {"small-warm": 90, "large-join": 90, "plan-cold": 90, "serve-rw": 75}
#: Host-speed normalisation (``HostSpeed``): a reference chunk is timed
#: at least every SPEED_EVERY seconds of the timed window; a time is
#: scaled by REFERENCE_NOMINAL_S over the median chunk time within
#: SPEED_WINDOW seconds of it.
SPEED_EVERY = 0.04
SPEED_WINDOW = 0.25
REFERENCE_NOMINAL_S = 1e-3
#: Live views over the written relation, so every write maintains them:
#: serve-rw's tenant subscribes to them, the in-process write probe
#: registers them.
SUBSCRIPTIONS = (
    "ans(X, Z) :- e(X, Y), e(Y, Z).",
    "ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).",
)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- statistics ------------------------------------------------------------
def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (0 <= p <= 100) of *values*."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: list[float], p: int) -> tuple[float, str, int]:
    """``(p-th percentile, label, samples)``; the label warns when fewer
    than ten samples lie beyond it."""
    n = len(values)
    label = f"p{p}" if n * (100 - p) / 100.0 >= 10 else f"p{p} (<10 beyond)"
    return percentile(values, p), label, n


def median_per_shape(by_shape: dict[str, list[float]]) -> float:
    """Geometric mean over the shapes of each shape's median.  A pooled
    median sits on whichever shape is in the middle of the mix, and
    jumps when two shapes trade places."""
    medians = [percentile(values, 50) for values in by_shape.values()]
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


def peak_rss_mb() -> float:
    """This process's memory high-water mark.  Read at the end of the
    timed window, before the post-run oracle checks; the pre-run oracle
    runs in a forked child (``forked``), so neither counts."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def forked(fn):
    """``fn()`` computed in a forked child and returned pickled, so that
    its memory does not count toward this process's high-water mark.
    The child has ended when this returns."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as out:
                pickle.dump(fn(), out)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read, "rb") as source:
        data = source.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"oracle child exited with status {status}")
    return pickle.loads(data)


def config(engine: Engine) -> dict:
    return {
        "backend": engine.backend,
        "layout": engine.layout,
        "numpy": importlib.util.find_spec("numpy") is not None,
        "python": platform.python_version(),
        "nproc": nproc(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def rows_of(relation) -> frozenset:
    return frozenset(relation.rows)


def digests(shapes) -> list[list[str]]:
    """``[cold, warm]`` plan digests per shape: the first ``Engine.plan``
    misses the cache, the second transports the cached decomposition
    onto the same query."""
    engine = Engine()
    out = []
    for shape in shapes:
        cold = engine.plan(shape.query, shape.db).digest()
        warm = engine.plan(shape.query, shape.db).digest()
        out.append([cold, warm])
    engine.close()
    return out


# -- host speed ----------------------------------------------------------
def reference_work() -> int:
    """A fixed interpreter-bound chunk that calls nothing of the program
    under test: grouping tuples into a dict and sorting them, then
    unions, intersections and hashing of small frozensets -- a mix whose
    time tracks the engine's requests across the host's speed swings."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i in range(500):
        groups.setdefault((i % 53, i % 31), []).append(i)
    keep = {key for key in groups if key[0] < 30}
    count = len(sorted((k, len(v)) for k, v in groups.items() if k in keep))
    sets = [
        frozenset((i % 7, j % 5, (i * j) % 11))
        for i in range(25) for j in range(12)
    ]
    seen: dict[frozenset, int] = {}
    for s in sets:
        union = s | sets[len(seen) % 17]
        seen[union] = seen.get(union, 0) + len(s & union)
    return count + len(seen)


class HostSpeed:
    """The speed of a shared host swings by up to ~1.7x within seconds
    (CPU time swings with it, so it is not time spent descheduled).  A
    fixed reference chunk, timed between requests, tracks it; times are
    reported as they would read on a host where the chunk takes
    REFERENCE_NOMINAL_S, so a change of the program still moves them in
    full while a change of the host's speed cancels out."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        for _ in range(20):  # warm-up, not recorded
            reference_work()

    def sample(self) -> None:
        """Time one chunk in this thread's CPU time, which leaves out
        waiting for the GIL while serve-rw's threads run beside it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            at = time.perf_counter()
            t0 = time.thread_time()
            reference_work()
            t1 = time.thread_time()
        finally:
            if enabled:
                gc.enable()
        self.at.append(at)
        self.took.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= SPEED_EVERY:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_NOMINAL_S over the median chunk time around
        ``[t0, t1]``: samples within SPEED_WINDOW, and always the last
        one before and the first one after."""
        low = bisect.bisect_left(self.at, t0 - SPEED_WINDOW)
        high = bisect.bisect_right(self.at, t1 + SPEED_WINDOW)
        low = min(low, max(bisect.bisect_left(self.at, t0) - 1, 0))
        high = max(high, min(bisect.bisect_right(self.at, t1) + 1, len(self.at)))
        return REFERENCE_NOMINAL_S / statistics.median(self.took[low:high])

    def normalise(self, spans: list[tuple[float, float]]) -> list[float]:
        """Normalised durations of ``(start, end)`` spans."""
        return [(t1 - t0) * self.factor(t0, t1) for t0, t1 in spans]


# -- per-layer metrics -----------------------------------------------------
def layer_metrics(
    recorder: Recorder, requests: int, request_s: float, writes: int,
) -> dict[str, float]:
    """Self time per request (ms) for each layer, work counts per
    request, and the share of request time the layers account for."""
    totals = recorder.totals()

    def self_ms(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0) * 1e3 / max(requests, 1)

    def per_request(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0) / max(requests, 1)

    lookups = totals.get("cache.lookup", {})
    execute = totals.get("request") or totals.get("serve.execute") or {}
    produced = execute.get("tuples_produced", 0)
    live = totals.get("live.apply", {})
    covered = sum(
        entry["self_s"] for name, entry in totals.items() if name != "request"
    )
    return {
        "parse.ms": self_ms("parse"),
        "decompose.ms": self_ms("decompose"),
        "decompose.calls": totals.get("decompose", {}).get("count", 0)
        / max(requests, 1),
        "cache.lookup_ms": self_ms("cache.lookup"),
        "cache.hit_ratio": lookups.get("hit", 0) / max(lookups.get("count", 0), 1),
        "compile.ms": self_ms("compile"),
        "bind.ms": self_ms("bind"),
        "bind.rows": per_request("bind", "rows"),
        "bag.ms": self_ms("bag"),
        "sweep.ms": self_ms("sweep"),
        "eval.max_intermediate": execute.get("max_intermediate", 0)
        / max(execute.get("count", 0), 1),
        "eval.tuples_produced": produced / max(execute.get("count", 0), 1),
        "eval.joins": execute.get("joins", 0) / max(execute.get("count", 0), 1),
        "eval.semijoins": execute.get("semijoins", 0)
        / max(execute.get("count", 0), 1),
        "eval.useful_ratio": execute.get("rows", 0) / max(produced, 1),
        "serve.admission_wait_ms": totals.get("admission_wait", {}).get(
            "total_s", 0.0) * 1e3 / max(requests, 1),
        "serve.execute_ms": totals.get("serve.execute", {}).get(
            "total_s", 0.0) * 1e3 / max(requests - writes, 1),
        "serve.encode_ms": self_ms("encode"),
        "live.apply_ms": live.get("self_s", 0.0) * 1e3 / max(live.get("count", 0), 1),
        "live.views_changed": live.get("views_changed", 0)
        / max(live.get("count", 0), 1),
        "trace.coverage": covered / request_s if request_s > 0 else 0.0,
    }


def record_eval(span, result) -> None:
    stats = result.stats
    span.set(
        max_intermediate=stats.max_intermediate,
        tuples_produced=stats.total_tuples_produced,
        joins=stats.joins,
        semijoins=stats.semijoins,
        rows=len(result.answer),
    )


# -- in-process workloads --------------------------------------------------
class InProcess:
    """small-warm, large-join and plan-cold: ``Engine.execute`` in a
    closed loop with one caller."""

    def __init__(self, workload: str, seed: int, size: str, speed: HostSpeed):
        self.workload = workload
        self.speed = speed
        self.seed = seed
        self.size = size
        self.cold = workload == "plan-cold"
        self.engine: Engine | None = None
        self.shapes = []
        self.widths = 0

    def setup(self) -> tuple[float, float]:
        """Generate and load the inputs, then run the first (cold) pass
        on a fresh engine.  Returns when it started and ended."""
        if self.engine is not None:
            self.engine.close()
        started = time.perf_counter()
        self.shapes = shapes_for(self.workload, self.seed, self.size)
        self.engine = Engine()
        self.widths = 0
        for shape in self.shapes:
            self.widths += self.engine.execute(shape.query, shape.db).width
        return started, time.perf_counter()

    def request(self, shape, n: int):
        if self.cold:
            return shape.query
        return renamed_variant(
            shape.query, seed=self.seed * 1_000_003 + n, rename_predicates=False
        )

    def run(self, seconds: float, recorder: Recorder | None) -> dict:
        engine = self.engine
        expected = forked(lambda: [
            rows_of(naive_join_eval(s.query, s.db)) for s in self.shapes
        ])
        probe = WriteProbe(
            engine, write_db(self.workload, self.shapes, self.seed, self.size),
            self.seed,
        )
        probe_recorder = Recorder()
        speed = self.speed
        spans: list[tuple[float, float]] = []
        names: list[str] = []
        round_s = {True: [], False: []}
        wrong = failed = attempted = n = traced_requests = 0
        traced_s = 0.0
        decompositions = engine.decompositions
        started = time.perf_counter()
        deadline = started + seconds
        round_index = 0
        while time.perf_counter() < deadline:
            traced = recorder is not None and round_index % 2 == 1
            round_index += 1
            if traced:
                recorder.install()
                recorder.wrap(engine, "execute", "request", record_eval)
            round_started = time.perf_counter()
            if self.cold:
                engine.cache.clear()
            for i, shape in enumerate(self.shapes):
                query = self.request(shape, n)
                n += 1
                attempted += 1
                speed.maybe_sample()
                t0 = time.perf_counter()
                try:
                    result = engine.execute(query, shape.db)
                except ReproError as error:
                    failed += 1
                    log(f"request failed: {query}: {error!r}")
                    continue
                t1 = time.perf_counter()
                elapsed = t1 - t0
                spans.append((t0, t1))
                names.append(shape.query.name)
                if traced:
                    traced_requests += 1
                    traced_s += elapsed
                if rows_of(result.answer) != expected[i]:
                    wrong += 1
                    log(f"wrong answer: {query}")
            round_elapsed = time.perf_counter() - round_started
            round_s[traced].append(round_elapsed)
            if traced:
                recorder.uninstall()
                probe_recorder.install()
            probe.run_for(PROBE_SHARE * round_elapsed, speed)
            if traced:
                probe_recorder.uninstall()
        speed.sample()
        peak_rss = peak_rss_mb()
        latencies = speed.normalise(spans)
        by_shape: dict[str, list[float]] = {}
        raw_by_shape: dict[str, list[float]] = {}
        for name, latency, (t0, t1) in zip(names, latencies, spans):
            by_shape.setdefault(name, []).append(latency)
            raw_by_shape.setdefault(name, []).append(t1 - t0)
        out = {
            "attempted": attempted,
            "failed": failed,
            "wrong": wrong + probe.check(),
            "peak_rss_mb": peak_rss,
            "latencies": latencies,
            "by_shape": by_shape,
            "raw_by_shape": raw_by_shape,
            "writes": speed.normalise(probe.spans),
            "raw_writes": [t1 - t0 for t0, t1 in probe.spans],
            "completed": len(latencies),
            # Closed loop, one caller: reads per second of request time
            # (the client's own work between requests is not counted).
            "window_s": sum(latencies),
            "raw_window_s": sum(t1 - t0 for t0, t1 in spans),
            "timed_decompositions": engine.decompositions - decompositions,
            "config": config(engine),
        }
        probe.close()
        if recorder is not None:
            layers = layer_metrics(recorder, traced_requests, traced_s, 0)
            live = probe_recorder.totals().get("live.apply", {})
            layers["live.apply_ms"] = (
                live.get("self_s", 0.0) * 1e3 / max(live.get("count", 0), 1)
            )
            layers["live.views_changed"] = (
                live.get("views_changed", 0) / max(live.get("count", 0), 1)
            )
            layers["decompose.width_sum"] = self.widths
            layers["loadgen.lag_p99_ms"] = 0.0
            layers["serve.shed"] = layers["serve.rate_limited"] = 0
            untraced = statistics.median(round_s[False]) if round_s[False] else 0
            traced_round = statistics.median(round_s[True]) if round_s[True] else 0
            layers["trace.overhead_frac"] = (
                traced_round / untraced - 1.0 if untraced else 0.0
            )
            out["layers"] = layers
        return out

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()


class WriteProbe:
    """Apply-delta latency of the in-process workloads: seeded signed
    batches through ``LiveEngine.apply`` on a copy of the workload's
    graph, with the two live views serve-rw subscribes to.  Reads never
    see this copy, so their answers stay fixed."""

    def __init__(self, engine: Engine, db: Database, seed: int):
        self.db = db
        self.live = engine.live(db)
        self.views = [
            self.live.register(parse_query(text)) for text in SUBSCRIPTIONS
        ]
        self.spans: list[tuple[float, float]] = []
        self.pending = delta_stream(db, PROBE_MAX, seed)
        self.pending.reverse()

    def run_for(self, budget: float, speed: HostSpeed) -> None:
        """Apply batches for about *budget* seconds (at least one, and
        PROBE_MAX in all)."""
        spent = 0.0
        while self.pending:
            delta = self.pending.pop()
            speed.maybe_sample()
            t0 = time.perf_counter()
            self.live.apply(delta)
            t1 = time.perf_counter()
            self.spans.append((t0, t1))
            spent += t1 - t0
            if spent >= budget:
                return

    def check(self) -> int:
        """Views whose answer differs from the oracle's."""
        return sum(
            rows_of(view.answers()) != rows_of(naive_join_eval(view.query, self.db))
            for view in self.views
        )

    def close(self) -> None:
        self.live.close()


# -- serve-rw --------------------------------------------------------------
class ServeRW:
    """Two ``ServeClient`` connections in an open loop against an
    in-process server: ~90% small-warm reads, ~10% signed deltas, one
    tenant holding two live subscriptions."""

    def __init__(self, seed: int, size: str, speed: HostSpeed):
        self.seed = seed
        self.size = size
        self.speed = speed
        self.server = None
        self.clients: list[ServeClient] = []
        self.shapes = []
        self.texts: list[str] = []
        self.subs: list[dict] = []
        self.widths = 0

    def setup(self) -> tuple[float, float]:
        self.close()
        started = time.perf_counter()
        self.shapes = shapes_for("serve-rw", self.seed, self.size)
        self.texts = [str(s.query) for s in self.shapes]
        db = self.shapes[0].db
        self.server = serve_in_thread(max_inflight=nproc(), max_queue=64)
        self.clients = [
            ServeClient(self.server.host, self.server.port, tenant="t")
            for _ in range(2)
        ]
        writer = self.clients[0]
        for predicate in db.predicates():
            rows = sorted(db.rows(predicate), key=repr)
            for i in range(0, len(rows), 2000):
                writer.load(predicate, rows[i:i + 2000])
        self.subs = [writer.subscribe(text) for text in SUBSCRIPTIONS]
        self.widths = 0
        for text in self.texts:
            self.widths += writer.query(text)["width"]
        return started, time.perf_counter()

    def run(self, seconds: float, recorder: Recorder | None) -> dict:
        db = self.shapes[0].db
        engine = self.server.server.engine
        decompositions = engine.decompositions
        deltas = delta_stream(
            Database.from_relations({"e": db.rows("e")}),
            int(SERVE_RATE * seconds / WRITE_EVERY) + 2,
            self.seed,
        )
        start = time.perf_counter() + 0.05
        end = start + seconds
        middle = start + seconds / 2
        # Fixed spacing, the second connection half an interval behind
        # the first: the interval leaves a request's service time well
        # clear of the other connection's next arrival.
        interval = 2.0 / SERVE_RATE
        schedules = [
            [
                start + (k + 0.5 * index) * interval
                for k in range(int(seconds / interval + 1))
                if start + (k + 0.5 * index) * interval < end
            ]
            for index in range(2)
        ]
        logs: list[list[dict]] = [[], []]
        crashed: list[BaseException] = []

        def connection(index: int) -> None:
            try:
                send(index)
            except BaseException as error:  # noqa: BLE001 - re-raised below
                crashed.append(error)

        def send(index: int) -> None:
            client = self.clients[index]
            writes = 0
            for k, due in enumerate(schedules[index]):
                now = time.perf_counter()
                if due > now:
                    time.sleep(due - now)
                entry = {"due": due}
                if index == 0 and k % WRITE_EVERY == WRITE_EVERY - 1:
                    delta = deltas[writes]
                    writes += 1
                    entry["write"] = writes - 1  # index into deltas
                    changes = {
                        p: list(rows.items()) for p, rows in delta.changes.items()
                    }
                    call = lambda: client.apply(changes)  # noqa: E731
                else:
                    shape = (k + index) % len(self.shapes)
                    entry["shape"] = shape
                    text = str(renamed_variant(
                        self.shapes[shape].query,
                        seed=self.seed * 1_000_003 + 2 * k + index,
                        rename_predicates=False,
                    ))
                    call = lambda: client.query(text)  # noqa: E731
                entry["sent"] = time.perf_counter()
                try:
                    response = call()
                except (ServerOverloaded, RateLimited) as error:
                    entry["error"] = type(error).__name__
                except ReproError as error:
                    entry["error"] = type(error).__name__
                    log(f"request failed: {error!r}")
                else:
                    if "shape" in entry:
                        entry["rows"] = frozenset(
                            tuple(r) for r in response["rows"]
                        )
                entry["recv"] = time.perf_counter()
                logs[index].append(entry)

        speed = self.speed
        sampled = threading.Event()

        def sample() -> None:
            while not sampled.wait(SPEED_EVERY):
                speed.sample()

        threads = [
            threading.Thread(target=connection, args=(i,), daemon=True)
            for i in range(2)
        ]
        sampler = threading.Thread(target=sample, daemon=True)
        speed.sample()
        sampler.start()
        try:
            for thread in threads:
                thread.start()
            if recorder is not None:
                time.sleep(max(0.0, middle - time.perf_counter()))
                recorder.install()
                recorder.wrap(engine, "execute", "serve.execute", record_eval)
            for thread in threads:
                thread.join(timeout=seconds + 120)
                if thread.is_alive():
                    raise RuntimeError("serve-rw client thread did not finish")
        finally:
            sampled.set()
            sampler.join()
        speed.sample()
        if crashed:
            raise crashed[0]
        if recorder is not None:
            recorder.uninstall()
        peak_rss = peak_rss_mb()
        wrong = self.check(logs, deltas)
        entries = logs[0] + logs[1]
        reads = [e for e in entries if "shape" in e and "error" not in e]
        write_ok = [e for e in entries if "write" in e and "error" not in e]
        failed = sum(1 for e in entries if "error" in e)
        by_shape: dict[str, list[float]] = {}
        raw_by_shape: dict[str, list[float]] = {}
        for e in reads:
            name = self.shapes[e["shape"]].query.name
            raw = e["recv"] - e["due"]
            factor = speed.factor(e["due"], e["recv"])
            by_shape.setdefault(name, []).append(factor * raw)
            raw_by_shape.setdefault(name, []).append(raw)
        window = max(e["recv"] for e in entries) - start
        out = {
            "attempted": len(entries),
            "failed": failed,
            "wrong": wrong,
            "peak_rss_mb": peak_rss,
            "latencies": speed.normalise([(e["due"], e["recv"]) for e in reads]),
            "by_shape": by_shape,
            "raw_by_shape": raw_by_shape,
            "writes": speed.normalise([(e["due"], e["recv"]) for e in write_ok]),
            "raw_writes": [e["recv"] - e["due"] for e in write_ok],
            "completed": len(reads),
            "window_s": window,
            "timed_decompositions": engine.decompositions - decompositions,
            "config": config(engine),
            "shed": sum(1 for e in entries if e.get("error") == "ServerOverloaded"),
            "rate_limited": sum(
                1 for e in entries if e.get("error") == "RateLimited"
            ),
        }
        if recorder is not None:
            traced = [e for e in entries if e["sent"] >= middle]
            untraced = [e for e in reads if e["recv"] < middle]
            traced_reads = [e for e in traced if "shape" in e and "error" not in e]
            layers = layer_metrics(
                recorder,
                len(traced),
                sum(e["recv"] - e["sent"] for e in traced),
                sum(1 for e in traced if "write" in e),
            )
            layers["decompose.width_sum"] = self.widths
            layers["loadgen.lag_p99_ms"] = percentile(
                [e["sent"] - e["due"] for e in entries], 99
            ) * 1e3
            base = percentile([e["recv"] - e["due"] for e in untraced], 50)
            layers["trace.overhead_frac"] = (
                percentile([e["recv"] - e["due"] for e in traced_reads], 50)
                / base - 1.0 if base else 0.0
            )
            layers["serve.shed"] = out["shed"]
            layers["serve.rate_limited"] = out["rate_limited"]
            out["layers"] = layers
        return out

    def check(self, logs: list[list[dict]], deltas: list) -> int:
        """Oracle check of every read and of the final state of every
        subscription.  Writes come from connection 0 only, one at a
        time, so the server applies them in send order; a read saw some
        prefix of them, bounded by the writes acknowledged before it was
        sent and the writes sent before its answer arrived."""
        # Prefix p = the first p *successful* writes (a shed write never
        # reached the database).
        writes = [e for e in logs[0] if "write" in e and "error" not in e]
        acked = [e["recv"] for e in writes]
        sent = [e["sent"] for e in writes]
        needed: dict[int, set[int]] = {}
        checks = []
        for index, entries in enumerate(logs):
            applied = 0
            for e in entries:
                if "write" in e:
                    applied += "error" not in e
                    continue
                if "rows" not in e:
                    continue
                if index == 0:
                    candidates = range(applied, applied + 1)
                else:
                    low = sum(1 for t in acked if t < e["sent"])
                    high = sum(1 for t in sent if t < e["recv"])
                    candidates = range(low, high + 1)
                checks.append((e, candidates))
                for prefix in candidates:
                    needed.setdefault(prefix, set()).add(e["shape"])
        db = self.shapes[0].db
        state = Database.from_relations(
            {p: db.rows(p) for p in db.predicates()}
        )
        answers: dict[tuple[int, int], frozenset] = {}
        for prefix in range(len(writes) + 1):
            if prefix:
                state.apply(deltas[writes[prefix - 1]["write"]])
            for shape in sorted(needed.get(prefix, ())):
                answers[shape, prefix] = rows_of(
                    naive_join_eval(self.shapes[shape].query, state)
                )
        wrong = 0
        for e, candidates in checks:
            if not any(answers[e["shape"], p] == e["rows"] for p in candidates):
                wrong += 1
                log(f"wrong answer: {self.texts[e['shape']]}")
        wrong += self.check_subscriptions(state)
        return wrong

    def check_subscriptions(self, final: Database) -> int:
        """Initial rows plus every pushed delta must equal the oracle's
        answer over the final database."""
        writer = self.clients[0]
        pushes = writer.pushes()
        while (message := writer.wait_push(timeout=0.5)) is not None:
            pushes.append(message)
        wrong = 0
        for text, sub in zip(SUBSCRIPTIONS, self.subs):
            state = {tuple(r) for r in sub["rows"]}
            for message in pushes:
                if message.get("sub") != sub["sub"]:
                    continue
                if message.get("push") != "delta":
                    wrong += 1
                    continue
                state.difference_update(tuple(r) for r in message["delete"])
                state.update(tuple(r) for r in message["insert"])
            expected = rows_of(naive_join_eval(parse_query(text), final))
            if frozenset(state) != expected:
                wrong += 1
                log(f"subscription diverged from the oracle: {text}")
        return wrong

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
            self.server = None


# -- entry point -----------------------------------------------------------
def end_to_end(
    workload: str, out: dict, setups: list[float], raw_setups: list[float],
    speed: HostSpeed,
) -> tuple[dict, dict]:
    """The end-to-end metrics of one measuring run, and the extra
    figures printed beside them (the un-normalised ones among them)."""
    reads_ms = [x * 1e3 for x in out["latencies"]]
    writes_ms = [x * 1e3 for x in out["writes"]]
    read_tail, read_label, read_n = tail(reads_ms, READ_TAIL[workload])
    write_tail, write_label, write_n = tail(writes_ms, WRITE_TAIL[workload])
    metrics = {
        "setup_s": statistics.median(setups),
        "req_p50_ms": median_per_shape(out["by_shape"]) * 1e3,
        "req_tail_ms": read_tail,
        "throughput_qps": out["completed"] / out["window_s"],
        "write_p50_ms": percentile(writes_ms, 50),
        "write_tail_ms": write_tail,
        "ok_frac": (out["attempted"] - out["failed"]) / max(out["attempted"], 1),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    extra = {
        "req_tail": f"{read_label} of {read_n} reads",
        "write_tail": f"{write_label} of {write_n} writes",
        "pooled_p50_ms": percentile(reads_ms, 50),
        "failed_frac": out["failed"] / max(out["attempted"], 1),
        "timed_decompositions": out["timed_decompositions"],
        "shape_p50_ms": {
            name: round(percentile(values, 50) * 1e3, 3)
            for name, values in out["by_shape"].items()
        },
        "setups_s": setups,
        "reference_ms": round(statistics.median(speed.took) * 1e3, 4),
        "raw_setup_s": statistics.median(raw_setups),
    }
    extra["raw_req_p50_ms"] = median_per_shape(out["raw_by_shape"]) * 1e3
    extra["raw_write_p50_ms"] = percentile(out["raw_writes"], 50) * 1e3
    if "raw_window_s" in out:
        extra["raw_throughput_qps"] = out["completed"] / out["raw_window_s"]
    return metrics, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument(
        "--mode", default="measure", choices=("measure", "traced", "digest")
    )
    args = parser.parse_args(argv)

    if args.mode == "digest":
        shapes = shapes_for(args.workload, args.seed, args.size)
        print(json.dumps({"digests": digests(shapes)}))
        return 0

    speed = HostSpeed()
    if args.workload == "serve-rw":
        workload = ServeRW(args.seed, args.size, speed)
    else:
        workload = InProcess(args.workload, args.seed, args.size, speed)

    def set_up() -> tuple[float, float]:
        for _ in range(3):
            speed.sample()
        span = workload.setup()
        for _ in range(3):
            speed.sample()
        return span

    try:
        repeats = SETUP_REPEATS if args.mode == "measure" else 1
        spans = [set_up() for _ in range(repeats)]
        setups = speed.normalise(spans)
        recorder = Recorder() if args.mode == "traced" else None
        out = workload.run(args.seconds, recorder)
        result = {
            "correct": out["wrong"] == 0,
            "attempted": out["attempted"],
            "failed": out["failed"],
            "config": out["config"],
        }
        if recorder is None:
            result["metrics"], result["extra"] = end_to_end(
                args.workload, out, setups, [t1 - t0 for t0, t1 in spans], speed
            )
        else:
            result["layers"] = out["layers"]
            result["digests"] = digests(workload.shapes)
            result["spans"] = recorder.export()
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
