"""Unit tests for the cross-request frontier cache."""

from __future__ import annotations

import json
import math

import pytest

from repro.api import Budget, OptimizeRequest, open_session, resolve_request
from repro.api.schema import (
    FINISH_EXHAUSTED,
    FINISH_INVOCATION_CAP,
    FINISH_TARGET_ALPHA,
    OptimizationResult,
)
from repro.service import CACHE_HIT, CACHE_MISS, CACHE_WARM, FrontierCache
from repro.bench.config import smoke_config, tiny_config
from repro.costs.metrics import extended_metric_set
from repro.service.frontier_cache import (
    JsonStore,
    canonical_workload_id,
    canonicalize,
    config_fingerprint,
    request_fingerprint,
    serial_stop,
)

TINY = dict(levels=3, scale="tiny")


def _run_and_trace(request: OptimizeRequest):
    """Run a request serially and return (alphas, update payloads, plans_after)."""
    session = open_session(request)
    alphas, updates, plans_after = [], [], []
    while not session.finished:
        update = session.step()
        alphas.append(update.invocation.alpha)
        updates.append(update.to_dict())
        plans_after.append(session.driver.factory.counters.total_plans_built)
    return session, alphas, updates, plans_after


def _record(cache: FrontierCache, key: str, request, session, alphas, updates, plans_after):
    return cache.record(
        key,
        workload=request.workload,
        algorithm=session.algorithm,
        query_name=session.driver.query.name,
        table_count=session.driver.query.table_count,
        metric_names=tuple(session.driver.factory.metric_set.names),
        levels=session.driver.schedule.levels,
        refines=session.driver.refines,
        alphas=alphas,
        updates=updates,
        plans_after=plans_after,
        session=session,
    )


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_spelling_independent_tpch_ids(self):
        for spec in ("q03", "tpch:q03", "tpch_q03"):
            resolved = resolve_request(OptimizeRequest(workload=spec, scale="tiny"))
            assert canonical_workload_id(resolved).startswith("tpch:")
        ids = {
            canonical_workload_id(
                resolve_request(OptimizeRequest(workload=spec, scale="tiny"))
            )
            for spec in ("q03", "tpch:q03")
        }
        assert len(ids) == 1

    def test_generated_ids_use_workload_fingerprint(self):
        resolved = resolve_request(
            OptimizeRequest(workload="gen:star:4:7", scale="tiny")
        )
        identifier = canonical_workload_id(resolved)
        assert identifier.startswith("gen:")
        assert len(identifier) > len("gen:") + 32  # a real digest, not the spec
        # The resolved-objects fingerprint is the exact workload_fingerprint
        # of the regenerated workload.
        from repro.workloads.generator import generated_workload, workload_fingerprint

        regenerated = workload_fingerprint(generated_workload(7, 4, "star"))
        assert identifier == f"gen:{regenerated}"

    @pytest.mark.parametrize(
        "changes",
        [
            {"workload": "gen:star:4:8"},
            {"levels": 4},
            {"precision": "fine"},
            {"metrics": ("execution_time", "monetary_fees")},
            {"algorithm": "memoryless"},
        ],
    )
    def test_fingerprint_sensitivity(self, changes):
        base = OptimizeRequest(workload="gen:star:4:7", **TINY)
        varied = base.with_overrides(**changes)
        algo_a = base.algorithm
        algo_b = varied.algorithm
        fp_a = request_fingerprint(resolve_request(base), algo_a)
        fp_b = request_fingerprint(resolve_request(varied), algo_b)
        assert fp_a != fp_b

    def test_reinstantiated_templates_do_not_alias(self):
        def fingerprint(workload):
            request = OptimizeRequest(workload=workload, **TINY)
            return request_fingerprint(resolve_request(request), request.algorithm)

        first = fingerprint("template:ss_item_date:1")
        assert fingerprint("template:ss_item_date:1") == first
        assert fingerprint("template:ss_item_date:2") != first

    def test_budget_is_excluded_from_the_fingerprint(self):
        base = OptimizeRequest(workload="gen:star:4:7", **TINY)
        capped = base.with_overrides(budget=Budget(max_invocations=1))
        assert request_fingerprint(
            resolve_request(base), "iama"
        ) == request_fingerprint(resolve_request(capped), "iama")

    @pytest.mark.parametrize(
        "workload, expected",
        [
            pytest.param(
                "gen:star:4:42",
                "cc4ef33f483098931e602b684ba9031cbfc9a0c08f0d28246d5ad41cddfcab7b",
                id="gen",
            ),
            pytest.param(
                "tpch:q03",
                "549456a69e3f40a28229a2f03a31b04df80946a1e24b5c79cbed9101cc5be3c0",
                id="tpch",
            ),
            pytest.param(
                "sql:tpch/q05",
                "bb10744224e1b1a61854de06534729997ca0b9950e54fec986807fc098e5098b",
                id="sql",
            ),
            pytest.param(
                "template:ss_item_date:7",
                "2070b81cd2d3c4d21066ef34424ab9a868d3c4d043d1e6798554de8c2fca8eac",
                id="template",
            ),
        ],
    )
    def test_fingerprints_are_pinned(self, workload, expected):
        # A persisted store is replayed only under the keys it was written
        # with: moving or reshaping the digest helpers must not change one.
        # Re-pin these only for a deliberate change of the key.
        resolved = resolve_request(OptimizeRequest(workload=workload, **TINY))
        assert request_fingerprint(resolved, "iama") == expected


class TestContentDigests:
    def test_fingerprint_is_stable_for_equal_configs(self):
        assert config_fingerprint(tiny_config()) == config_fingerprint(tiny_config())

    def test_fingerprint_distinguishes_presets(self):
        assert config_fingerprint(tiny_config()) != config_fingerprint(smoke_config())

    def test_fingerprint_sees_nested_overrides(self):
        base = smoke_config()
        overridden = base.with_overrides(metric_set=extended_metric_set(4))
        assert config_fingerprint(base) != config_fingerprint(overridden)

    def test_canonical_form_is_json_compatible(self):
        canonical = canonicalize(smoke_config())
        assert json.loads(json.dumps(canonical)) == canonical

    def test_config_survives_pickling_with_equality_intact(self):
        """A pickled copy of a configuration stays equal, equally hashed and
        equally fingerprinted, so per-config memoization and request keys
        agree across processes."""
        import pickle

        config = smoke_config()
        roundtripped = pickle.loads(pickle.dumps(config))
        assert roundtripped == config
        assert hash(roundtripped) == hash(config)
        assert config_fingerprint(roundtripped) == config_fingerprint(config)


class TestJsonStore:
    def test_roundtrip_keeps_key_order(self, tmp_path):
        store = JsonStore(tmp_path / "store")
        assert store.load("frontiers/a.json") is None
        entry = {"version": 1, "alphas": [1.5, 1.0], "frontier": [[0.25, 0.5]]}
        path = store.store("frontiers/a.json", entry)
        assert path == store.path_for("frontiers/a.json") and path.exists()
        loaded = store.load("frontiers/a.json")
        assert loaded == entry
        assert list(loaded) == list(entry)
        assert len(store) == 1

    def test_corrupt_or_non_object_entries_are_misses(self, tmp_path):
        store = JsonStore(tmp_path)
        store.store("frontiers/a.json", {"value": 1}).write_text("{not json")
        store.store("frontiers/b.json", {"value": 2}).write_text("[1, 2]")
        assert store.load("frontiers/a.json") is None
        assert store.load("frontiers/b.json") is None

    def test_entries_are_listed_per_namespace(self, tmp_path):
        store = JsonStore(tmp_path / "store")
        assert store.entries() == [] and len(store) == 0
        store.store("frontiers/a.json", {"v": 1})
        store.store("other/b.json", {"v": 2})
        assert {path.parent.name for path in store.entries()} == {
            "frontiers",
            "other",
        }
        assert store.entries("frontiers/*.json") == [
            store.path_for("frontiers/a.json")
        ]

    def test_a_failed_write_leaves_no_temp_file(self, tmp_path):
        store = JsonStore(tmp_path)
        with pytest.raises(TypeError):
            store.store("frontiers/a.json", {"value": object()})
        assert list((tmp_path / "frontiers").iterdir()) == []
        assert store.load("frontiers/a.json") is None


# ----------------------------------------------------------------------
# The serial stopping rule
# ----------------------------------------------------------------------
class TestSerialStop:
    ALPHAS = [1.06, 1.035, 1.01]

    def test_unlimited_budget_stops_at_exhaustion(self):
        assert serial_stop(self.ALPHAS, True, 3, Budget()) == (3, FINISH_EXHAUSTED)

    def test_invocation_cap_stops_early(self):
        stop = serial_stop(self.ALPHAS, True, 3, Budget(max_invocations=2))
        assert stop == (2, FINISH_INVOCATION_CAP)

    def test_target_alpha_stops_when_reached(self):
        stop = serial_stop(self.ALPHAS, True, 3, Budget(target_alpha=1.04))
        assert stop == (2, FINISH_TARGET_ALPHA)

    def test_exhaustion_takes_precedence_over_budget(self):
        # The session's apply() marks exhaustion before checking the budget.
        stop = serial_stop(self.ALPHAS, True, 3, Budget(max_invocations=3))
        assert stop == (3, FINISH_EXHAUSTED)

    def test_non_refining_planners_exhaust_after_one_invocation(self):
        assert serial_stop([1.0], False, 5, Budget()) == (1, FINISH_EXHAUSTED)

    def test_budget_beyond_trace_returns_none(self):
        assert serial_stop(self.ALPHAS[:1], True, 3, Budget()) is None

    def test_deadline_budgets_are_rejected(self):
        with pytest.raises(ValueError):
            serial_stop(self.ALPHAS, True, 3, Budget(deadline_seconds=1.0))


# ----------------------------------------------------------------------
# Match / record / evict
# ----------------------------------------------------------------------
class TestFrontierCache:
    def test_miss_then_hit_roundtrip(self):
        request = OptimizeRequest(workload="gen:chain:4:0", **TINY)
        resolved = resolve_request(request)
        key = request_fingerprint(resolved, "iama")
        cache = FrontierCache()
        assert cache.match(key, request.budget).status == CACHE_MISS

        session, alphas, updates, plans_after = _run_and_trace(request)
        _record(cache, key, request, session, alphas, updates, plans_after)

        decision = cache.match(key, request.budget)
        assert decision.status == CACHE_HIT
        assert decision.stop_index == len(alphas)
        payload = decision.entry.result_payload(
            decision.stop_index, decision.finish_reason
        )
        result = OptimizationResult.from_dict(payload)
        assert result.finish_reason == FINISH_EXHAUSTED
        assert result.frontier_size > 0
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_replay_of_a_shorter_budget_prefix(self):
        request = OptimizeRequest(workload="gen:chain:4:0", **TINY)
        key = request_fingerprint(resolve_request(request), "iama")
        cache = FrontierCache()
        session, alphas, updates, plans_after = _run_and_trace(request)
        _record(cache, key, request, session, alphas, updates, plans_after)

        capped = Budget(max_invocations=2)
        decision = cache.match(key, capped)
        assert decision.status == CACHE_HIT
        assert decision.stop_index == 2
        payload = decision.entry.result_payload(2, decision.finish_reason)
        # The replayed prefix is bit-identical to a serial capped run.
        serial = open_session(request.with_overrides(budget=capped)).run()
        replay = OptimizationResult.from_dict(payload)
        assert [tuple(s.cost) for s in replay.frontier] == [
            tuple(s.cost) for s in serial.frontier
        ]
        assert replay.finish_reason == serial.finish_reason
        assert replay.plans_generated == serial.plans_generated

    def test_warm_start_pops_the_parked_session(self):
        request = OptimizeRequest(
            workload="gen:chain:4:0", budget=Budget(max_invocations=1), **TINY
        )
        key = request_fingerprint(resolve_request(request), "iama")
        cache = FrontierCache()
        session, alphas, updates, plans_after = _run_and_trace(request)
        assert session.resumable
        _record(cache, key, request, session, alphas, updates, plans_after)

        decision = cache.match(key, Budget())
        assert decision.status == CACHE_WARM
        assert decision.session is session
        # The session was popped: a second unlimited request has no session
        # left to resume and must run cold.
        assert cache.match(key, Budget()).status == CACHE_MISS
        assert cache.stats()["warm_starts"] == 1

    def test_shorter_trace_never_replaces_longer(self):
        request = OptimizeRequest(workload="gen:chain:4:0", **TINY)
        key = request_fingerprint(resolve_request(request), "iama")
        cache = FrontierCache()
        session, alphas, updates, plans_after = _run_and_trace(request)
        _record(cache, key, request, session, alphas, updates, plans_after)
        entry = cache.record(
            key,
            workload=request.workload,
            algorithm="iama",
            query_name="x",
            table_count=4,
            metric_names=("a",),
            levels=3,
            refines=True,
            alphas=alphas[:1],
            updates=updates[:1],
            plans_after=plans_after[:1],
        )
        assert entry.invocations == len(alphas)

    def test_lru_eviction_respects_the_byte_budget(self):
        import json

        request_a = OptimizeRequest(workload="gen:chain:4:0", **TINY)
        request_b = OptimizeRequest(workload="gen:star:4:0", **TINY)
        session_a, alphas_a, updates_a, plans_a = _run_and_trace(request_a)
        session_b, alphas_b, updates_b, plans_b = _run_and_trace(request_b)
        one_entry_bytes = sum(
            len(json.dumps(u, separators=(",", ":"))) for u in updates_a
        )
        cache = FrontierCache(max_bytes=one_entry_bytes + one_entry_bytes // 2)
        key_a = request_fingerprint(resolve_request(request_a), "iama")
        key_b = request_fingerprint(resolve_request(request_b), "iama")
        _record(cache, key_a, request_a, session_a, alphas_a, updates_a, plans_a)
        _record(cache, key_b, request_b, session_b, alphas_b, updates_b, plans_b)
        stats = cache.stats()
        assert stats["entries"] < 2
        assert stats["evictions"] >= 1
        assert stats["bytes_in_use"] <= cache.max_bytes

    def test_disk_persistence_survives_a_new_cache(self, tmp_path):
        request = OptimizeRequest(workload="gen:chain:4:0", **TINY)
        key = request_fingerprint(resolve_request(request), "iama")
        first = FrontierCache(persist_dir=tmp_path)
        session, alphas, updates, plans_after = _run_and_trace(request)
        _record(first, key, request, session, alphas, updates, plans_after)

        second = FrontierCache(persist_dir=tmp_path)
        decision = second.match(key, request.budget)
        assert decision.status == CACHE_HIT
        assert decision.entry.session is None  # live sessions never persist
        payload = decision.entry.result_payload(
            decision.stop_index, decision.finish_reason
        )
        assert OptimizationResult.from_dict(payload).frontier_size > 0

    def test_record_rejects_misaligned_traces(self):
        cache = FrontierCache()
        with pytest.raises(ValueError):
            cache.record(
                "k",
                workload="w",
                algorithm="iama",
                query_name="q",
                table_count=2,
                metric_names=("a",),
                levels=3,
                refines=True,
                alphas=[1.0],
                updates=[],
                plans_after=[1],
            )


# ----------------------------------------------------------------------
# Two-tier byte accounting
# ----------------------------------------------------------------------
class TestTwoTierAccounting:
    """The LRU budget must charge *current* sizes, never admission-time ones.

    A warm-started session's plan arena grows while it refines; when the
    extended run is re-recorded (or the popped session is re-parked after an
    admission bounce) the live-tier charge must be remeasured, or the byte
    budget undercounts and eviction fires late.  ``audit()`` recomputes every
    entry from scratch and asserts the charges match.
    """

    def _capped(self):
        return OptimizeRequest(
            workload="gen:chain:4:0", budget=Budget(max_invocations=1), **TINY
        )

    def test_warm_start_resume_is_recharged_at_the_grown_size(self):
        # A clique keeps generating new plans as resolution refines, so the
        # parked arena is measurably larger after the resumed invocations.
        request = OptimizeRequest(
            workload="gen:clique:5:0",
            budget=Budget(max_invocations=1),
            levels=4,
            scale="tiny",
        )
        key = request_fingerprint(resolve_request(request), "iama")
        cache = FrontierCache()
        session, alphas, updates, plans_after = _run_and_trace(request)
        _record(cache, key, request, session, alphas, updates, plans_after)
        cache.audit()
        first_arena = cache.stats()["arena_bytes"]
        assert first_arena > 0

        capped_wider = Budget(max_invocations=2)
        decision = cache.match(key, capped_wider)
        assert decision.status == CACHE_WARM
        cache.audit()  # popping released exactly the arena charge
        assert cache.stats()["arena_bytes"] == 0

        # Resume one more invocation: the arena grows past its parked size,
        # and the invocation cap keeps the session parkable for re-record.
        resumed = decision.session
        resumed.resume(capped_wider)
        while not resumed.finished:
            update = resumed.step()
            alphas.append(update.invocation.alpha)
            updates.append(update.to_dict())
            plans_after.append(resumed.driver.factory.counters.total_plans_built)
        _record(cache, key, request, resumed, alphas, updates, plans_after)
        cache.audit()
        grown_arena = cache.stats()["arena_bytes"]
        assert grown_arena > first_arena

    def test_repark_after_admission_bounce_recharges_the_arena(self):
        request = self._capped()
        key = request_fingerprint(resolve_request(request), "iama")
        cache = FrontierCache()
        session, alphas, updates, plans_after = _run_and_trace(request)
        _record(cache, key, request, session, alphas, updates, plans_after)
        decision = cache.match(key, Budget())
        assert decision.status == CACHE_WARM
        # The bounced submission re-records the same-length trace to re-park
        # the popped session (the PlanningService admission-failure path).
        entry = _record(
            cache, key, request, decision.session, alphas, updates, plans_after
        )
        assert entry.session is decision.session
        cache.audit()
        stats = cache.stats()
        assert stats["live_sessions"] == 1
        assert stats["arena_bytes"] > 0
        assert stats["bytes_in_use"] == stats["trace_bytes"] + stats["arena_bytes"]

    def test_warm_pop_releases_only_the_live_tier(self):
        request = self._capped()
        key = request_fingerprint(resolve_request(request), "iama")
        cache = FrontierCache()
        session, alphas, updates, plans_after = _run_and_trace(request)
        _record(cache, key, request, session, alphas, updates, plans_after)
        before = cache.stats()
        decision = cache.match(key, Budget())
        assert decision.status == CACHE_WARM
        after = cache.stats()
        assert after["trace_bytes"] == before["trace_bytes"]
        assert after["bytes_in_use"] == before["bytes_in_use"] - before["arena_bytes"]

    def test_flush_persists_every_resident_trace(self, tmp_path):
        request = OptimizeRequest(workload="gen:star:4:0", **TINY)
        key = request_fingerprint(resolve_request(request), "iama")
        cache = FrontierCache(persist_dir=tmp_path)
        session, alphas, updates, plans_after = _run_and_trace(request)
        _record(cache, key, request, session, alphas, updates, plans_after)
        assert cache.flush() == 1
        # A fresh cache over the same directory replays the flushed trace.
        replayer = FrontierCache(persist_dir=tmp_path)
        assert replayer.match(key, request.budget).status == CACHE_HIT

    def test_flush_without_persistence_is_a_noop(self):
        assert FrontierCache().flush() == 0

