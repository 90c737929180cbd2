"""Seed-determinism regression tests for the synthetic workload generator.

A ``gen:`` workload spec names a synthetic query by
``(seed, table_count, topology)``, and the frontier cache keys requests by
its fingerprint -- in any shard process, or in the on-disk store written by
an earlier run.  That is only sound if the generator is a pure function of
the seed *across processes* (``PYTHONHASHSEED`` differs between fresh
interpreters, so any hash-order dependence would break this).  These tests pin that property down via
:func:`repro.workloads.generator.workload_fingerprint`.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.workloads.generator import (
    SyntheticWorkloadGenerator,
    Topology,
    generated_workload,
    workload_fingerprint,
)

GRID = [
    (seed, table_count, topology.value)
    for seed in (0, 7)
    for table_count in (2, 4)
    for topology in Topology
]

_FINGERPRINT_SCRIPT = """
import sys
from repro.workloads.generator import generated_workload, workload_fingerprint
for line in sys.stdin.read().split():
    seed, tables, topology = line.split(",")
    generated = generated_workload(int(seed), int(tables), topology)
    print(workload_fingerprint(generated))
"""


def _fingerprints_in_fresh_process() -> list:
    src_root = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_root) + os.pathsep + env.get("PYTHONPATH", "")
    stdin = "\n".join(f"{s},{n},{t}" for s, n, t in GRID)
    completed = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT_SCRIPT],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return completed.stdout.split()


class TestInProcessDeterminism:
    def test_identical_seeds_identical_workloads(self):
        for seed, table_count, topology in GRID:
            first = workload_fingerprint(
                generated_workload(seed, table_count, topology)
            )
            second = workload_fingerprint(
                generated_workload(seed, table_count, topology)
            )
            assert first == second

    def test_fingerprint_distinguishes_seeds_and_shapes(self):
        fingerprints = {
            workload_fingerprint(generated_workload(seed, tables, topology))
            for seed, tables, topology in GRID
        }
        # Two-table queries have a single join edge, so all four topologies
        # coincide there; everything else must differ.
        assert len(fingerprints) >= len(GRID) - 2 * 3

    def test_generator_state_does_not_leak_between_calls(self):
        """generated_workload is independent of prior generation activity."""
        generator = SyntheticWorkloadGenerator(seed=42)
        generator.generate_many(3, 3, Topology.STAR)  # perturb some RNG state
        independent = generated_workload(42, 3, Topology.STAR)
        fresh = SyntheticWorkloadGenerator(seed=42).generate(3, Topology.STAR)
        assert workload_fingerprint(independent) == workload_fingerprint(fresh)


class TestCrossProcessDeterminism:
    def test_two_fresh_processes_agree_with_each_other_and_with_us(self):
        local = [
            workload_fingerprint(generated_workload(seed, tables, topology))
            for seed, tables, topology in GRID
        ]
        first = _fingerprints_in_fresh_process()
        second = _fingerprints_in_fresh_process()
        assert first == second, "two fresh processes disagree"
        assert first == local, "fresh process disagrees with this process"
