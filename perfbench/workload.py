"""One benchmark workload, run in a fresh process by ``perfbench/run.py``.

Usage (normally launched by ``run.py``, which times the set-up)::

    python3 perfbench/workload.py --workload curated|gen-dpor|service \\
        --seed N --seconds S --trace 0|1 [--suite dev|holdout] [--probe]

The process sets up (imports, ``default_model()`` and, on ``service``,
a listening ``ServiceDaemon``), prints ``READY``, builds its inputs from
``--seed``, runs the workload's passes and prints one JSON result line.
``--probe`` stops right after ``READY``: ``run.py`` repeats it to take
the median set-up time.

Every request enters through the daemon's wire format: the in-process
workloads build ``EngineRequest.from_options(source, name, options)``,
and the HTTP paths send the same ``{"source", "name", "options"}`` body
to ``POST /v1/query``.  ``options`` holds only ``reduction`` and
``max_states``, so the program's defaults pick everything else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

_clock = time.perf_counter

#: Generator seeds of the generated suites.  ``dev`` is the suite used
#: while a change is written; ``holdout`` is kept aside to confirm a
#: claim on shapes the change was not tuned on (``--suite holdout``).
SUITE_SEEDS = {
    "gen-dpor": {"dev": 1, "holdout": 7919},
    "service": {"dev": 1, "holdout": 7919},
}

#: Per-test state budgets.  ``curated`` keeps all 48 tests, including the
#: known over-budget ones (IRIW+syncs, ISA2, the 2+2W family ...).
CURATED_BUDGET = 3000
GEN_SIZE, GEN_BUDGET = 24, 2000
SERVICE_POOL, SERVICE_REPEATS_PER_TEST, SERVICE_BUDGET = 24, 4, 2000
#: Share of repeat queries sent as a reformatted copy of the source.
SERVICE_REFORMAT_SHARE = 0.3
#: Cache-hit replays per test after each in-process pass.
REPLAYS = 2

#: Pass length on the reference machine (2 shared CPUs); it fixes the
#: number of passes for a given ``--seconds`` so the pooled sample count
#: (and so the tail percentile) does not depend on machine speed.
NOMINAL_PASS_S = {"curated": 15.0, "gen-dpor": 15.0, "service": 7.5}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def reformat(source: str, variant: int) -> str:
    """A differently formatted copy of ``source`` with the same meaning.

    0: unchanged; 1: trailing blanks and blank lines; 2: the code table's
    column alignment collapsed.  ``emit_litmus`` maps all three to one
    canonical text, so they share a cache key.
    """
    if variant == 1:
        return "\n".join(line + "   " for line in source.splitlines()) + "\n\n\n"
    if variant == 2:
        lines = []
        for line in source.splitlines():
            if line.rstrip().endswith(";") and "=" not in line:
                line = " ".join(line.split()).replace(" | ", "|").replace(" ;", ";")
            lines.append(line)
        return "\n".join(lines) + "\n"
    return source


@dataclass
class Item:
    """One test of a workload: name, source as sent, known answer."""

    name: str
    source: str
    expected: str
    #: The other formatting sent by replays and reformatted repeats.
    alternate: str


def formatted(rng: random.Random, name: str, source: str, expected: str) -> Item:
    """An item sent in one seeded formatting, with a different alternate."""
    variant = rng.randrange(3)
    alternate = (variant + 1 + rng.randrange(2)) % 3
    return Item(name, reformat(source, variant), expected, reformat(source, alternate))


def curated_items(rng: random.Random) -> List[Item]:
    from repro.litmus.library import corpus

    entries = corpus()
    rng.shuffle(entries)
    return [formatted(rng, entry.name, entry.source, entry.architected) for entry in entries]


def generated_items(
    rng: random.Random, seed: int, size: int, max_threads: int, max_run: int
) -> List[Item]:
    from repro.litmus.diy import generate
    from repro.testgen.concurrent import expectation

    items = []
    for test in generate(seed, size, max_threads=max_threads, max_run=max_run):
        expected = expectation(test.edges)
        if expected is None:
            raise RuntimeError(f"{test.name}: the axiomatic solver gave no answer")
        items.append(formatted(rng, test.name, test.source, expected))
    rng.shuffle(items)
    return items


def service_stream(rng: random.Random, pool: List[Item]) -> List[tuple]:
    """The closed-loop query stream: (item, first_seen, source) triples.

    Each pool test is sent ``1 + SERVICE_REPEATS_PER_TEST`` times in a
    seeded order; its first query is the cold one and every later one a
    cache hit, some of them a reformatted copy.  Fixed multiplicities
    keep the hit/miss mix the same for every seed.
    """
    slots = [item for item in pool for _ in range(1 + SERVICE_REPEATS_PER_TEST)]
    rng.shuffle(slots)
    stream, sent = [], set()
    for item in slots:
        if item.name not in sent:
            sent.add(item.name)
            stream.append((item, True, item.source))
        else:
            reformatted = rng.random() < SERVICE_REFORMAT_SHARE
            stream.append((item, False, item.alternate if reformatted else item.source))
    return stream


# ----------------------------------------------------------------------
# Records and checks
# ----------------------------------------------------------------------


class Counters(NamedTuple):
    """Determinism counters of one request: equal on every pass."""

    name: str
    status: str
    complete: bool
    cached: bool
    visited: int
    unique: int
    transitions: int
    finals: int
    outcome_digest: str


@dataclass
class Record:
    """What one request produced: timing, correctness, determinism counters."""

    phase: str  # "main" | "hit"
    name: str
    latency_s: float
    ok: bool
    complete: bool = False
    cached: bool = False
    counters: Optional[Counters] = None
    search_s: float = 0.0
    error: str = ""


def outcome_digest(payload: dict) -> str:
    encoded = json.dumps(payload["outcomes"], sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]


def counters_of(payload: dict) -> Counters:
    stats = payload["stats"]
    return Counters(
        payload["name"],
        payload["status"],
        payload["complete"],
        payload.get("cached", False),
        stats["states_visited"],
        stats["unique_states"],
        stats["transitions_taken"],
        stats["final_states"],
        outcome_digest(payload),
    )


def status_ok(status: str, expected: str) -> bool:
    """A budget-limited verdict is undecided, never wrong."""
    return status == "StateLimit" or status == expected


def record_cold(phase: str, item: Item, payload: dict, latency: float) -> Record:
    ok = status_ok(payload["status"], item.expected) and not payload.get("cached")
    return Record(
        phase, item.name, latency, ok,
        complete=payload["complete"],
        counters=counters_of(payload),
        search_s=payload["stats"]["seconds"],
        error="" if ok else f"status {payload['status']}, expected {item.expected}",
    )


def record_hit(phase: str, item: Item, payload: dict, cold: dict, latency: float) -> Record:
    served = {k: v for k, v in payload.items() if k != "cached"}
    reference = {k: v for k, v in cold.items() if k != "cached"}
    ok = bool(payload.get("cached")) and served == reference
    return Record(
        phase, item.name, latency, ok,
        complete=payload["complete"], cached=True,
        counters=counters_of(payload),
        error="" if ok else "cache hit differs from the cold verdict",
    )


# ----------------------------------------------------------------------
# Daemon access
# ----------------------------------------------------------------------


class Daemon:
    """An in-process ``ServiceDaemon`` over a fresh on-disk sqlite cache.

    Queries go through the program's own ``ServiceClient`` (what
    ``ppcmem2 client`` drives): one connection per request, one request
    in flight.
    """

    def __init__(self, cache_path: Path):
        from repro.service.client import ServiceClient
        from repro.service.daemon import ServiceDaemon

        if cache_path.exists():
            cache_path.unlink()
        self.daemon = ServiceDaemon(port=0, cache_path=str(cache_path))
        self.thread = threading.Thread(
            target=self.daemon.serve_forever,
            kwargs={"install_signal_handlers": False},
            daemon=True,
        )
        self.thread.start()
        host, port = self.daemon.address
        self.client = ServiceClient(url=f"http://{host}:{port}", timeout=120)

    def query(self, source: str, name: str, options: dict) -> dict:
        return self.client.query(source, name=name, options=options)

    def close(self) -> None:
        self.daemon.shutdown()
        self.thread.join(timeout=30)
        if self.thread.is_alive():
            raise RuntimeError("daemon thread did not stop")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclass
class PassResult:
    records: List[Record] = field(default_factory=list)
    main_wall_s: float = 0.0
    wall_s: float = 0.0


class Workload:
    """Shared pass driver; subclasses define inputs and one pass."""

    name = ""
    options: Dict[str, object] = {}

    def __init__(self, seed: int, suite: str, work: Path):
        self.work = work
        self.rng = random.Random(seed)
        self.suite = suite
        self._request_id = 0
        self.daemon: Optional[Daemon] = None

    def setup(self) -> None:
        """Set-up counted in ``setup_s`` beyond imports and the model."""

    def build_inputs(self) -> None:
        """Make the workload's inputs from the seed (after set-up)."""
        raise NotImplementedError

    def next_request(self) -> int:
        self._request_id += 1
        return self._request_id

    def run_pass(self, tracer, index: int) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.close()
            self.daemon = None


def timed(tracer, root: str, request_id: Optional[int], call):
    """Run ``call()`` under a root span: (result, seconds, error text)."""
    begin = _clock()
    try:
        with tracer.root(root, request_id) if tracer else nullcontext():
            result = call()
    except Exception as exc:  # noqa: BLE001 - counted as failed
        return None, _clock() - begin, f"{type(exc).__name__}: {exc}"
    return result, _clock() - begin, ""


class InProcessWorkload(Workload):
    """curated / gen-dpor: one engine call per test, then cache-hit replays.

    The timed loop calls ``EnvelopeEngine.run_request`` with no cache,
    as ``ppcmem2 litmus`` does by default.  After it, a daemon whose
    cache holds this pass's cold verdicts answers every test ``REPLAYS``
    times over HTTP; each hit must equal its cold verdict bit for bit.
    """

    items: List[Item] = []

    def run_pass(self, tracer, index: int) -> PassResult:
        from repro.service.engine import EngineRequest, EnvelopeEngine

        result = PassResult()
        started = _clock()
        engine = EnvelopeEngine()
        cold: Dict[str, dict] = {}
        for item in self.items:
            payload, latency, error = timed(
                tracer, "bench.request", self.next_request(),
                lambda: engine.run_request(
                    EngineRequest.from_options(item.source, item.name, self.options)
                ).to_payload(),
            )
            if error:
                result.records.append(Record("main", item.name, latency, False, error=error))
                continue
            cold[item.name] = payload
            result.records.append(record_cold("main", item, payload, latency))
        result.main_wall_s = _clock() - started
        daemon = Daemon(self.work / f"replay-{index}.sqlite")
        try:
            with tracer.root("bench.prefill", None) if tracer else nullcontext():
                for payload in cold.values():
                    daemon.daemon.cache.put(payload["key"], payload["name"], payload)
            for replay in range(REPLAYS):
                for item in self.items:
                    if item.name in cold:
                        source = item.alternate if replay % 2 else item.source
                        result.records.append(self._hit(tracer, daemon, item, source, cold))
        finally:
            daemon.close()
        result.wall_s = _clock() - started
        return result

    def _hit(self, tracer, daemon: "Daemon", item: Item, source: str, cold: dict) -> Record:
        payload, latency, error = timed(
            tracer, "client.query", self.next_request(),
            lambda: daemon.query(source, item.name, self.options),
        )
        if error:
            return Record("hit", item.name, latency, False, error=error)
        return record_hit("hit", item, payload, cold[item.name], latency)


class Curated(InProcessWorkload):
    name = "curated"
    options = {"max_states": CURATED_BUDGET}

    def build_inputs(self) -> None:
        self.items = curated_items(self.rng)


class GenDpor(InProcessWorkload):
    name = "gen-dpor"
    options = {"reduction": "dpor", "max_states": GEN_BUDGET}

    def build_inputs(self) -> None:
        self.items = generated_items(
            self.rng, SUITE_SEEDS[self.name][self.suite], GEN_SIZE,
            max_threads=4, max_run=4,
        )


class Service(Workload):
    """Closed loop, one request in flight, fresh daemon and cache per pass."""

    name = "service"
    options = {"max_states": SERVICE_BUDGET}
    stream: List[tuple] = []

    def setup(self) -> None:
        self.daemon = Daemon(self.work / "service-0.sqlite")

    def build_inputs(self) -> None:
        pool = generated_items(
            self.rng, SUITE_SEEDS[self.name][self.suite], SERVICE_POOL,
            max_threads=2, max_run=2,
        )
        self.stream = service_stream(self.rng, pool)

    def run_pass(self, tracer, index: int) -> PassResult:
        result = PassResult()
        if self.daemon is None:
            self.daemon = Daemon(self.work / f"service-{index}.sqlite")
        started = _clock()
        cold: Dict[str, dict] = {}
        try:
            for item, first_seen, source in self.stream:
                payload, latency, error = timed(
                    tracer, "client.query", self.next_request(),
                    lambda: self.daemon.query(source, item.name, self.options),
                )
                if error:
                    record = Record("main", item.name, latency, False, error=error)
                elif first_seen:
                    cold[item.name] = payload
                    record = record_cold("main", item, payload, latency)
                elif item.name in cold:
                    record = record_hit("main", item, payload, cold[item.name], latency)
                else:
                    record = Record("main", item.name, latency, False,
                                    error="repeat of a failed query")
                result.records.append(record)
            result.main_wall_s = _clock() - started
        finally:
            self.close()
        result.wall_s = _clock() - started
        return result


WORKLOADS = {"curated": Curated, "gen-dpor": GenDpor, "service": Service}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def quantile(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile of ``values``.

    A weighted mean of all order statistics, the i-th weighted by the
    Beta((n+1)q, (n+1)(1-q)) probability of [(i-1)/n, i/n].  Per-test
    times cluster with gaps (tiny tests beside budget-bound ones), so the
    single order statistic that a plain median or percentile picks jumps
    between clusters under a few percent of noise; this estimate moves
    with the noise instead of amplifying it.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 32  # midpoint rule per order statistic
    total = weighted = 0.0
    for i, value in enumerate(ordered):
        mass = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            mass += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)
        total += mass
        weighted += mass * value
    return weighted / total


def tail(values: List[float]):
    """(estimate, percentile, samples): the highest percentile with >= 10 beyond it."""
    n = len(values)
    q = max(0.5, (n - 10) / n)
    return quantile(values, q), 100.0 * q, n


def end_to_end(passes: List[PassResult]) -> dict:
    main = [r for p in passes for r in p.records if r.phase == "main"]
    hits = [r for p in passes for r in p.records if r.cached]
    value, percentile, samples = tail([r.latency_s for r in main])
    return {
        "requests_per_s": len(main) / sum(p.main_wall_s for p in passes),
        "verdict_p50_s": quantile([r.latency_s for r in main], 0.5),
        "verdict_tail_s": value,
        "hit_p50_ms": 1000.0 * quantile([r.latency_s for r in hits], 0.5),
        "decided_frac": sum(r.complete for r in main) / len(main),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "_tail": {"percentile": percentile, "samples": samples},
    }


#: Layer spans reported as ``<name>.calls`` and ``<name>.self_s``.
LAYER_SPANS = (
    "sail.run_to_outcome", "sail.resume",
    "system.enumerate", "system.apply", "system.key",
    "storage.final_memory",
    "reduction.independent", "symmetry.canonical",
    "litmus.parse", "litmus.emit",
    "engine.resolve", "engine.run_request",
    "cache.key", "cache.get", "cache.put",
)
ROOT_SPANS = ("bench.request", "bench.prefill", "client.query")


def per_layer(tracer, traced: PassResult, untraced: List[PassResult]) -> dict:
    """Per-layer numbers of one traced pass, against the untraced passes."""
    totals = tracer.layer_totals()
    metrics = {}
    for name in LAYER_SPANS + ("search.explore",):
        entry = totals.get(name, {"calls": 0, "self_s": 0.0})
        short = "search" if name == "search.explore" else name
        metrics[f"{short}.calls"] = entry["calls"]
        metrics[f"{short}.self_s"] = entry["self_s"]
    metrics["storage.final_memory.outcomes"] = tracer.counts.get("storage.final_memory", 0)
    explored = [r.counters for r in traced.records if r.counters and not r.cached]
    visited = sum(c.visited for c in explored)
    unique = sum(c.unique for c in explored)
    metrics["search.visited"] = visited
    metrics["search.unique"] = unique
    metrics["search.transitions"] = sum(c.transitions for c in explored)
    metrics["search.finals"] = sum(c.finals for c in explored)
    metrics["search.unique_ratio"] = unique / visited if visited else 0.0
    untraced_explored = [
        r for p in untraced for r in p.records if r.counters and not r.cached
    ]
    search_s = sum(r.search_s for r in untraced_explored)
    metrics["search.unique_per_s"] = (
        sum(r.counters.unique for r in untraced_explored) / search_s if search_s else 0.0
    )
    gets = metrics["cache.get.calls"]
    metrics["cache.hit_ratio"] = tracer.counts.get("cache.get", 0) / gets if gets else 0.0
    overheads = tracer.self_times("client.query")
    metrics["daemon.overhead_ms"] = 1000.0 * statistics.median(overheads) if overheads else 0.0
    metrics["request.self_s"] = sum(totals.get(n, {"self_s": 0.0})["self_s"] for n in ROOT_SPANS)
    accounted = sum(entry["self_s"] for entry in totals.values())
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.residual_s"] = traced.wall_s - accounted
    metrics["trace.overhead_s"] = traced.wall_s - statistics.fmean(p.wall_s for p in untraced)
    return metrics


def layer_table(metrics: dict) -> str:
    """The per-layer table written beside the span dump."""
    lines = [f"{'layer':28s} {'calls':>10s} {'self_s':>10s} {'share':>7s}"]
    wall = metrics["trace.wall_s"]
    for name in LAYER_SPANS + ("search",):
        self_s = metrics[f"{name}.self_s"]
        lines.append(f"{name:28s} {metrics[f'{name}.calls']:>10d} {self_s:>10.4f} "
                     f"{100 * self_s / wall:>6.1f}%")
    for label, key in (("request (unattributed)", "request.self_s"),
                       ("residual (outside spans)", "trace.residual_s")):
        lines.append(f"{label:28s} {'':>10s} {metrics[key]:>10.4f} "
                     f"{100 * metrics[key] / wall:>6.1f}%")
    lines.append(f"{'traced wall':28s} {'':>10s} {wall:>10.4f} {100.0:>6.1f}%")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------


def check_determinism(passes: List[PassResult]) -> List[str]:
    """Counters must repeat exactly between passes (and traced runs)."""
    reference = [r.counters for r in passes[0].records]
    problems = []
    for index, result in enumerate(passes[1:], start=1):
        for first, again in zip_longest(reference, [r.counters for r in result.records]):
            if first != again:
                problems.append(f"pass {index} differs from pass 0: {first} != {again}")
                break
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", choices=("dev", "holdout"), default="dev")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    # The daemon is on the loopback interface: never route through a proxy.
    os.environ["no_proxy"] = os.environ["NO_PROXY"] = "*"

    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    # --- set-up: imports, the shared ISA model, the service daemon ---
    from repro.isa.model import default_model, resolve_sail_backend
    import repro.service.daemon  # noqa: F401 - part of the timed set-up
    import repro.service.engine  # noqa: F401

    default_model()
    workload = WORKLOADS[args.workload](args.seed, args.suite, work)
    workload.setup()
    print("READY", flush=True)
    if args.probe:
        workload.close()
        return 0

    try:
        workload.build_inputs()
        result = _measure(args, workload)
    finally:
        workload.close()
    result["env"] = {
        "sail_backend": resolve_sail_backend(None),
        "suite": args.suite,
        "suite_seed": SUITE_SEEDS.get(args.workload, {}).get(args.suite),
        "options": workload.options,
    }
    print(json.dumps(result), flush=True)
    return 0


def _measure(args, workload: Workload) -> dict:
    if not args.trace:
        count = max(2, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        passes = [workload.run_pass(None, index) for index in range(count)]
        return _summary(passes, check_determinism(passes), end_to_end(passes))

    from tracer import Tracer

    # Untraced, traced, untraced: the bracket cancels the first pass's
    # warm-up from the tracing overhead.
    tracer = Tracer()
    before = workload.run_pass(None, 0)
    tracer.install()
    try:
        traced = workload.run_pass(tracer, 1)
    finally:
        tracer.uninstall()
    after = workload.run_pass(None, 2)
    passes = [before, traced, after]
    metrics = per_layer(tracer, traced, [before, after])
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    tracer.dump(str(OUT / f"{stem}-spans.jsonl"))
    (OUT / f"{stem}-layers.txt").write_text(layer_table(metrics))
    return _summary(passes, check_determinism(passes), metrics)


def _summary(passes: List[PassResult], problems: List[str], metrics: dict) -> dict:
    records = [r for p in passes for r in p.records]
    failures = [f"{r.name}: {r.error}" for r in records if not r.ok]
    return {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:20],
        "determinism": problems,
        "passes": len(passes),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
