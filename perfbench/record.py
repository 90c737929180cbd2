"""Record the reference frontiers the benchmark checks its outputs against.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/record.py

Writes ``perfbench/reference.json``:

* for every session spec of ``anytime_mix`` and ``steer_tighten``: the final
  frontier digest and the exact ``OptimizerCounters`` totals;
* for every (template, seed) pair of ``service_zipf``: the frontier digest of
  a serial ``open_session`` run, as a one-invocation probe and in full.

Before writing, every frontier of a query with at most
``ALPHA_CHECK_MAX_TABLES`` tables is checked against the exact Pareto frontier of
``ExhaustiveParetoOptimizer``: it must meet the alpha_r guarantee of the
resolution schedule.  Re-record only when a change is meant to alter
frontiers or work counts, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import measure
import sessions
import specs
from service import service_request

from repro.api import session as api_session
from repro.api.request import resolve_request
from repro.baselines import ExhaustiveParetoOptimizer
from repro.costs.pareto import approximation_error

#: Frontiers of queries with at most this many tables are checked against
#: the exact frontier; larger ones take the exhaustive optimizer too long.
ALPHA_CHECK_MAX_TABLES = 6


def check_alpha(request, frontier, bounds, label: str) -> float:
    """Fail unless ``frontier`` meets the alpha_r guarantee for ``request``."""
    resolved = resolve_request(request)
    exact = ExhaustiveParetoOptimizer(resolved.query, resolved.factory)
    exact.optimize(bounds)
    universe = [plan.cost for plan in exact.frontier()]
    error = approximation_error([plan.cost for plan in frontier], universe, bounds)
    guarantee = resolved.schedule.guaranteed_precision(resolved.query.table_count)
    if error > guarantee + 1e-9:
        raise SystemExit(f"{label}: approximation error {error} exceeds {guarantee}")
    return error


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != measure.HASH_SEED:
        parser.error(f"run with PYTHONHASHSEED={measure.HASH_SEED}, as the benchmark does")
    reference = {"anytime_mix": {}, "steer_tighten": {}, "service_zipf": {}}
    checked = 0
    for workload, steered in (("anytime_mix", False), ("steer_tighten", True)):
        for spec in specs.session_specs():
            started = time.perf_counter()
            sample = sessions.run_session(spec, spec, steered)
            reference[workload][spec] = {"digest": sample.digest, "counters": sample.counters}
            note = ""
            request = sessions.session_request(spec)
            if resolve_request(request).query.table_count <= ALPHA_CHECK_MAX_TABLES:
                error = check_alpha(request, sample.frontier, sample.bounds, f"{workload} {spec}")
                checked += 1
                note = f" alpha {error:.4f}"
            print(f"{workload} {spec}: {time.perf_counter() - started:.2f} s{note}", file=sys.stderr)
    for spec in specs.service_pairs():
        for kind in (specs.PROBE, specs.FULL):
            request = service_request(spec, kind)
            result = api_session.open_session(request).run()
            reference["service_zipf"][f"{spec}|{kind}"] = measure.frontier_digest(result.frontier)
            if kind == specs.FULL and resolve_request(request).query.table_count <= ALPHA_CHECK_MAX_TABLES:
                check_alpha(request, result.frontier, request.bounds, f"service_zipf {spec}")
                checked += 1
        print(f"service_zipf {spec}", file=sys.stderr)
    measure.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {measure.REFERENCE_PATH} ({checked} frontiers checked against the exact frontier)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
