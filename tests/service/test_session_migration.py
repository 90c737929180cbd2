"""Cross-shard session migration, exercised in one process.

The worker pool migrates a parked session by calling ``export_session`` on
the source shard and ``import_session`` on the target; each shard serves
the RPC from its own :class:`PlanningService`.  These tests drive the same
two handlers, and the frontier-cache halves beneath them (``pop_session``
and ``park_session``), directly — every edge of the migration protocol is
covered without spawning worker processes.  ``tests/service/test_pool.py``
runs the same scenario end to end across real shards.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import Budget, OptimizeRequest, open_session, resolve_request
from repro.service import (
    CACHE_HIT,
    CACHE_MISS,
    CACHE_WARM,
    FrontierCache,
    PlanningService,
)
from repro.service.frontier_cache import request_fingerprint
from repro.service.shard import _export_session, _import_session

REQUEST = OptimizeRequest(workload="gen:star:4:0", levels=3, scale="tiny")
CAPPED = REQUEST.with_overrides(budget=Budget(max_invocations=1))


def _frontier_costs(result):
    return [tuple(summary.cost) for summary in result.frontier]


def _key():
    return request_fingerprint(resolve_request(REQUEST), "iama")


def _run(service: PlanningService, request: OptimizeRequest) -> str:
    ticket = service.submit(request)
    service.run_until_idle()
    return ticket


@pytest.fixture
def source(tmp_path):
    """A manual-mode service that has parked the capped run's session."""
    with PlanningService(workers=0, cache_dir=tmp_path) as service:
        _run(service, CAPPED)
        assert service.cache.stats()["live_sessions"] == 1
        yield service


@pytest.fixture
def target(tmp_path):
    """A second service over the same persistent tier (a new shard)."""
    with PlanningService(workers=0, cache_dir=tmp_path) as service:
        yield service


# ----------------------------------------------------------------------
# The export half: FrontierCache.pop_session
# ----------------------------------------------------------------------
class TestPopSession:
    def test_unknown_key_returns_none(self):
        assert FrontierCache().pop_session(_key()) is None

    def test_trace_without_a_parked_session_returns_none(self):
        with PlanningService(workers=0) as service:
            _run(service, REQUEST)  # exhausted: the trace is cached, no session
            assert service.cache.pop_session(_key()) is None
            assert service.cache.match(_key(), Budget()).status == CACHE_HIT

    def test_pop_detaches_the_session_and_keeps_the_trace(self, source):
        cache = source.cache
        session = cache.pop_session(_key())
        assert session is not None and session.resumable
        stats = cache.stats()
        assert stats["live_sessions"] == 0
        assert stats["arena_bytes"] == 0
        assert stats["bytes_in_use"] == stats["trace_bytes"] > 0
        cache.audit()
        assert cache.pop_session(_key()) is None
        # The capped prefix still replays; a longer run has nothing to resume.
        assert cache.match(_key(), Budget(max_invocations=1)).status == CACHE_HIT
        assert cache.match(_key(), Budget()).status == CACHE_MISS


# ----------------------------------------------------------------------
# The import half: FrontierCache.park_session
# ----------------------------------------------------------------------
class TestParkSession:
    def test_refused_without_a_trace(self, source):
        session = source.cache.pop_session(_key())
        assert FrontierCache().park_session(_key(), session) is False

    def test_refused_when_a_session_is_already_parked(self, source):
        extra = open_session(CAPPED)
        extra.run()
        assert source.cache.park_session(_key(), extra) is False
        decision = source.cache.match(_key(), Budget())
        assert decision.status == CACHE_WARM
        assert decision.session is not extra

    def test_loads_the_trace_from_the_persistent_tier(self, source, tmp_path):
        session = source.cache.pop_session(_key())
        cache = FrontierCache(persist_dir=tmp_path)
        assert len(cache) == 0
        assert cache.park_session(_key(), session) is True
        assert len(cache) == 1
        decision = cache.match(_key(), Budget())
        assert decision.status == CACHE_WARM
        assert decision.session is session

    def test_charges_the_arena_at_its_current_size(self, source, tmp_path):
        session = source.cache.pop_session(_key())
        cache = FrontierCache(persist_dir=tmp_path)
        cache.park_session(_key(), session)
        stats = cache.stats()
        assert stats["live_sessions"] == 1
        assert stats["arena_bytes"] == (
            session.driver.factory.arena.stats().approx_bytes
        )
        assert stats["bytes_in_use"] == stats["trace_bytes"] + stats["arena_bytes"]
        cache.audit()


# ----------------------------------------------------------------------
# The shard RPC handlers
# ----------------------------------------------------------------------
class TestExportImport:
    def test_export_without_a_parked_session_reports_not_found(self):
        with PlanningService(workers=0) as service:
            assert _export_session(service, _key()) == {"found": False}

    def test_export_without_a_cache_reports_not_found(self):
        with PlanningService(workers=0, cache=False) as service:
            _run(service, CAPPED)
            assert _export_session(service, _key()) == {"found": False}

    def test_export_hands_over_the_parked_session(self, source):
        exported = _export_session(source, _key())
        assert exported["found"] is True
        assert exported["inline_bytes"] == len(exported["blob"])
        assert source.cache.stats()["live_sessions"] == 0
        assert pickle.loads(exported["blob"]).resumable
        assert _export_session(source, _key()) == {"found": False}

    def test_the_blob_carries_every_arena_column(self, source):
        parked = source.cache.match(_key(), Budget()).session
        arena_stats = parked.driver.factory.arena.stats()
        source.cache.park_session(_key(), parked)
        exported = _export_session(source, _key())
        # Arrays pickle as their raw bytes, so the payload holds at least
        # the arena's column bytes; the copy's arena is the same arena.
        assert exported["inline_bytes"] > arena_stats.approx_bytes
        clone = pickle.loads(exported["blob"])
        assert clone.driver.factory.arena.stats() == arena_stats

    def test_import_parks_against_the_shared_trace(self, source, target):
        exported = _export_session(source, _key())
        assert _import_session(target, _key(), exported["blob"]) == {"parked": True}
        assert target.cache.stats()["live_sessions"] == 1

    def test_import_without_a_trace_is_refused(self, source, tmp_path):
        exported = _export_session(source, _key())
        with PlanningService(workers=0, cache_dir=tmp_path / "other") as elsewhere:
            assert _import_session(elsewhere, _key(), exported["blob"]) == {
                "parked": False
            }
        with PlanningService(workers=0, cache=False) as uncached:
            assert _import_session(uncached, _key(), exported["blob"]) == {
                "parked": False
            }

    def test_migrated_session_resumes_bit_identical_to_serial(self, source, target):
        exported = _export_session(source, _key())
        _import_session(target, _key(), exported["blob"])
        ticket = _run(target, REQUEST)
        assert target.poll(ticket)["cache_status"] == CACHE_WARM
        result = target.result(ticket, timeout=1.0)
        assert _frontier_costs(result) == _frontier_costs(open_session(REQUEST).run())
        # Only the invocations the capped run did not make ran on the target.
        assert target.stats()["scheduler"]["invocations_run"] == REQUEST.levels - 1
