"""Service layer: engine façade, verdict cache, daemon, graceful shutdown.

The acceptance bar for the cache is *bit-identity*: a cache hit must be
indistinguishable (outcome sets, outcome lines, verdict, error text)
from the exploration it memoised, across processes and
``PYTHONHASHSEED`` values.  These tests pin that, plus the service
round-trip over real HTTP and the terminate-and-join pool cleanup the
daemon's SIGTERM path relies on.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.concurrency.search import SearchConfig
from repro.litmus.diy import generate
from repro.litmus.emit import emit_litmus
from repro.litmus.library import by_name
from repro.litmus.parser import parse_litmus
from repro.service import (
    EngineRequest,
    EnvelopeEngine,
    SCHEMA_VERSION,
    VerdictCache,
    cache_key,
)

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _canonical(name):
    return emit_litmus(parse_litmus(by_name(name).source))


def _comparable(payload):
    """A verdict payload minus fields a *fresh* run may legitimately vary.

    ``stats`` records wall-clock seconds, so two independent cold
    explorations differ there; everything else -- status, outcome sets,
    outcome lines, condition fields, error text, key -- must match
    exactly.
    """
    return {k: v for k, v in payload.items() if k != "stats"}


class TestCacheKey:
    """The key is a pure, process-independent function of the query."""

    _SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.litmus.emit import emit_litmus
from repro.litmus.library import by_name
from repro.litmus.parser import parse_litmus
from repro.concurrency.search import SearchConfig
from repro.service import cache_key
canonical = emit_litmus(parse_litmus(by_name("MP").source))
print(cache_key(canonical))
print(cache_key(canonical, SearchConfig(strategy="sharded", reduction="sleep",
                                        context_bound=3, max_states=1000)))
"""

    #: MP's keys as recorded before ``SearchConfig`` carried the
    #: settings: existing on-disk caches must keep hitting.
    PINNED = {
        SearchConfig(): (
            "ce22d52669258b707042886a5bcc3740269d77a6ca3429361e8c647428184676"
        ),
        SearchConfig(reduction="dpor", max_states=2000): (
            "d4019034b895d8bd22524fbd76aa90f9a69045829155f4f874f810d6d44acfba"
        ),
        SearchConfig(
            strategy="sharded", reduction="sleep", context_bound=3,
            max_states=1000,
        ): "51d15094118e41313aa3d28e8379a3112c7979de0e737ea39d9dd2a4aa54fc4c",
    }

    def test_key_identical_across_hash_seeds(self, tmp_path):
        script = tmp_path / "key_probe.py"
        script.write_text(self._SCRIPT.format(src=_SRC))
        outputs = []
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(proc.stdout.strip())
        assert outputs[0] == outputs[1]
        assert outputs[0]  # non-empty: the probe really ran
        # And the in-process value matches the subprocess values.
        assert outputs[0].splitlines()[0] == cache_key(_canonical("MP"))

    def test_keys_pinned_across_versions(self):
        assert SCHEMA_VERSION == 3
        canonical = _canonical("MP")
        for search, digest in self.PINNED.items():
            assert cache_key(canonical, search) == digest, search

    def test_every_parameter_changes_the_key(self):
        canonical = _canonical("MP")
        base = cache_key(canonical)
        variants = [
            cache_key(_canonical("SB")),
            cache_key(canonical, SearchConfig(strategy="sharded")),
            cache_key(canonical, SearchConfig(reduction="sleep")),
            cache_key(canonical, SearchConfig(context_bound=2)),
            cache_key(canonical, SearchConfig(max_states=100)),
        ]
        keys = [base] + variants
        assert len(set(keys)) == len(keys)
        # Sharding knobs never change an outcome set, so they share a key.
        sharded = cache_key(canonical, SearchConfig(strategy="sharded"))
        assert sharded == cache_key(
            canonical, SearchConfig(strategy="sharded", jobs=2, shard_depth=1)
        )

    def test_formatting_differences_do_not_split_entries(self):
        engine = EnvelopeEngine()
        source = by_name("MP").source
        mangled = (
            "\n".join(line + "   " for line in source.splitlines())
            + "\n\n\n"
        )
        assert engine.request_key(
            EngineRequest(source=source)
        ) == engine.request_key(EngineRequest(source=mangled))

    def test_request_parameters_reach_the_key(self):
        engine = EnvelopeEngine()
        source = by_name("MP").source
        base = engine.request_key(EngineRequest(source=source))
        for search in (
            SearchConfig(max_states=50),
            SearchConfig(reduction="sleep"),
            SearchConfig(strategy="bounded", context_bound=2),
        ):
            key = engine.request_key(EngineRequest(source, search=search))
            assert key != base, search
            assert key == cache_key(_canonical("MP"), search)


class TestVerdictCachePersistence:
    def test_round_trip_survives_reopen(self, tmp_path):
        path = str(tmp_path / "verdicts.sqlite")
        payload = {"status": "Allowed", "outcomes": [], "key": "k"}
        cache = VerdictCache(path)
        cache.put("k", "MP", payload)
        cache.close()

        reopened = VerdictCache(path)
        assert len(reopened) == 1
        assert "k" in reopened
        assert reopened.get("k") == payload
        stats = reopened.stats()
        assert stats["hits"] == 1 and stats["schema"] == SCHEMA_VERSION
        reopened.close()

    def test_stale_schema_rows_miss(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "verdicts.sqlite")
        cache = VerdictCache(path)
        cache.put("k", "MP", {"status": "Allowed"})
        cache.close()
        with sqlite3.connect(path) as connection:
            connection.execute("UPDATE verdicts SET schema = schema - 1")
            connection.commit()
        reopened = VerdictCache(path)
        assert reopened.get("k") is None
        assert reopened.stats()["misses"] == 1
        reopened.close()


class TestEngineCacheEquivalence:
    """Every cache hit is compared against a fresh exploration."""

    def _requests(self):
        requests = [
            EngineRequest(source=by_name(name).source, name=name)
            for name in ("MP", "MP+syncs", "SB", "LB+addrs")
        ]
        requests += [
            EngineRequest(source=test.source, name=test.name)
            for test in generate(0, 3, max_threads=2)
        ]
        return requests

    def test_hits_bit_identical_to_cold_and_fresh_runs(self):
        cached_engine = EnvelopeEngine(cache=VerdictCache())
        fresh_engine = EnvelopeEngine()
        for request in self._requests():
            cold = cached_engine.run_request(request)
            warm = cached_engine.run_request(request)
            assert not cold.cached and warm.cached
            # Hit vs the exploration it memoised: bit-identical,
            # stats included (the hit replays the stored record).
            assert warm.to_payload() == cold.to_payload()
            # Hit vs an independent cache-less exploration: identical
            # up to wall-clock stats.
            fresh = fresh_engine.run_request(request)
            assert _comparable(warm.to_payload()) == _comparable(
                fresh.to_payload()
            )
            assert warm.outcomes == fresh.outcomes

    def test_state_budget_verdicts_cached_under_their_own_key(self):
        cache = VerdictCache()
        engine = EnvelopeEngine(cache=cache)
        source = by_name("SB+syncs").source
        limited = EngineRequest(source, search=SearchConfig(max_states=50))
        full = EngineRequest(source=source)

        cold = engine.run_request(limited)
        assert cold.status == "StateLimit" and not cold.complete
        warm = engine.run_request(limited)
        assert warm.cached and warm.to_payload() == cold.to_payload()

        unlimited = engine.run_request(full)
        assert not unlimited.cached  # different key: budget is hashed in
        assert unlimited.status in ("Allowed", "Forbidden", "Observed")
        assert len(cache) == 2


class TestRunBatch:
    def test_batch_matches_single_requests_and_reports_hits(self):
        requests = [
            EngineRequest(source=by_name(name).source, name=name)
            for name in ("MP", "SB", "LB+addrs")
        ]
        engine = EnvelopeEngine(cache=VerdictCache())
        cold = engine.run_batch(requests)
        assert (cold.hits, cold.misses) == (0, 3)
        assert [v.name for v in cold.verdicts] == ["MP", "SB", "LB+addrs"]

        warm = engine.run_batch(requests)
        assert (warm.hits, warm.misses) == (3, 0)
        assert all(v.cached for v in warm.verdicts)

        # The corpus-runner path (batch misses) and the single-request
        # path must produce identical verdicts, outcome lines included.
        single = EnvelopeEngine()
        for request, batched in zip(requests, cold.verdicts):
            alone = single.run_request(request)
            assert _comparable(batched.to_payload()) == _comparable(
                alone.to_payload()
            )


class TestDaemonRoundTrip:
    @pytest.fixture()
    def service(self):
        import threading

        from repro.service.client import ServiceClient
        from repro.service.daemon import ServiceDaemon

        daemon = ServiceDaemon(port=0)
        daemon.start_scheduler()
        thread = threading.Thread(
            target=daemon._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        host, port = daemon.address
        try:
            yield ServiceClient(url=f"http://{host}:{port}")
        finally:
            daemon.shutdown()
            thread.join(timeout=10)

    def test_query_twice_second_from_cache(self, service):
        source = by_name("MP").source
        first = service.query(source, name="MP")
        second = service.query(source, name="MP")
        assert first["status"] == "Allowed" and not first["cached"]
        assert second["cached"]
        assert _comparable(
            {k: v for k, v in second.items() if k != "cached"}
        ) == _comparable({k: v for k, v in first.items() if k != "cached"})

    def test_submit_generated_batch_and_wait(self, service):
        submitted = service.submit(
            gen={"seed": 0, "size": 2, "max_threads": 2}
        )
        assert submitted["state"] == "queued" and submitted["tests"] >= 1
        results = service.wait(submitted["job"], timeout=300)
        assert results["state"] == "done"
        assert len(results["verdicts"]) == submitted["tests"]
        assert results["cache_misses"] == submitted["tests"]
        for verdict in results["verdicts"]:
            assert verdict["status"] in (
                "Allowed", "Forbidden", "Observed", "StateLimit",
            )

    @pytest.mark.parametrize("options", [
        {"reduction": "bogus"}, {"strategy": "nope"}, {"max_states": "10"},
        {"max_states": True}, {"max_states": 0}, {"max_states": -5},
    ], ids=repr)
    def test_invalid_options_refused_at_submit(self, service, options):
        from repro.service.client import ServiceError

        source = by_name("MP").source
        before = service.stats()["jobs"]
        with pytest.raises(ServiceError) as excinfo:
            service.submit([("MP", source)], options=options)
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            service.query(source, name="MP", options=options)
        assert excinfo.value.status == 400
        assert service.stats()["jobs"] == before  # nothing was queued

    def test_removed_symmetry_option_is_refused(self, service):
        from repro.service.client import ServiceError

        with pytest.raises(ServiceError) as excinfo:
            service.query(by_name("MP").source, options={"symmetry": True})
        assert excinfo.value.status == 400

    @staticmethod
    def _connect(service):
        import http.client
        from urllib.parse import urlsplit

        address = urlsplit(service.base_url)
        return http.client.HTTPConnection(
            address.hostname, address.port, timeout=10
        )

    def _post_raw(self, service, path, length, body=b""):
        """POST ``body`` with a verbatim Content-Length; (status, JSON)."""
        import json

        connection = self._connect(service)
        try:
            connection.putrequest("POST", path)
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", length)
            connection.endheaders(body)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def test_bad_bodies_are_refused_and_daemon_survives(self, service):
        from repro.service.daemon import MAX_BODY_BYTES

        for path in ("/v1/query", "/v1/jobs"):
            # Refused without reading a byte of the body.
            assert self._post_raw(service, path, "-5")[0] == 400
            assert self._post_raw(service, path, "ten")[0] == 400
            assert self._post_raw(
                service, path, str(MAX_BODY_BYTES + 1)
            )[0] == 413
            for body in (b"[]", b'"x"', b"5", b"{"):
                status, payload = self._post_raw(
                    service, path, str(len(body)), body
                )
                assert status == 400, (path, body)
                assert "error" in payload
        for body in (b'{"gen": 5}', b'{"tests": "x"}', b'{"tests": [5]}',
                     b'{"gen": {"size": 1}, "options": [1]}'):
            status, _payload = self._post_raw(
                service, "/v1/jobs", str(len(body)), body
            )
            assert status == 400, body
        status, _payload = self._post_raw(
            service, "/v1/query", "13", b'{"source": 5}'
        )
        assert status == 400
        assert service.health()["ok"]

    def test_keep_alive_cache_hits_are_fast(self, service):
        """One HTTP/1.1 connection: repeat queries are answered without
        the delayed-ACK stall Nagle's algorithm adds to two-write
        responses (~40 ms each)."""
        import json
        import statistics

        body = json.dumps(
            {"source": by_name("MP").source, "name": "MP"}
        ).encode()
        headers = {"Content-Type": "application/json"}
        connection = self._connect(service)
        try:
            connection.request("POST", "/v1/query", body, headers)
            cold = json.loads(connection.getresponse().read())
            assert not cold["cached"]
            latencies = []
            for _ in range(5):
                started = time.perf_counter()
                connection.request("POST", "/v1/query", body, headers)
                hit = json.loads(connection.getresponse().read())
                latencies.append(time.perf_counter() - started)
                assert hit["cached"]
        finally:
            connection.close()
        assert statistics.median(latencies) < 0.020, latencies

    def test_errors_are_structured(self, service):
        from repro.service.client import ServiceError

        with pytest.raises(ServiceError) as excinfo:
            service.query(by_name("MP").source, options={"bogus": 1})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            service.results("job-999")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            service.submit(tests=())  # empty job
        assert excinfo.value.status == 400


class TestPoolShutdown:
    def test_shutdown_active_pools_terminates_children(self):
        import multiprocessing

        from repro.concurrency.parallel import (
            _PoolHandle,
            _register_pool,
            shutdown_active_pools,
        )

        context = multiprocessing.get_context()
        pool = context.Pool(processes=1)
        children = list(pool._pool)
        pool.apply_async(time.sleep, (60,))
        _register_pool(_PoolHandle(pool=pool))

        assert shutdown_active_pools() == 1
        deadline = time.monotonic() + 10
        while any(p.is_alive() for p in children):
            assert time.monotonic() < deadline, "worker child leaked"
            time.sleep(0.05)
        # Registry is drained: a second sweep has nothing to do.
        assert shutdown_active_pools() == 0
