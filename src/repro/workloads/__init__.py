"""Workloads: TPC-H join blocks and synthetic query generators.

The paper evaluates on "TPC-H queries containing at least one join", noting
that "the Postgres optimizer may split up optimization of one TPC-H query into
multiple optimizations of sub-queries with different numbers of tables"
(Section 6.1).  :mod:`repro.workloads.tpch` ships that decomposition: each
select-project-join block as SQL text, parsed into its join graph; the blocks
join between 2 and 8 tables with no 7-table block, matching the groups shown
in Figures 3-5.

:mod:`repro.workloads.generator` produces synthetic schemas and queries (chain,
star, cycle and clique join graphs) with a seeded random generator; these are
used by the property-based tests and by the ablation benchmarks.

:mod:`repro.workloads.sql` parses real SQL text into the same workload model,
:mod:`repro.workloads.templates` adds TPC-DS-style parameterized templates,
and :mod:`repro.workloads.spec` is the single resolver for every workload-spec
family (``tpch:``, ``gen:``, ``sql:``, ``template:``).
"""

from repro.workloads.tpch import (
    tpch_schema,
    tpch_statistics,
    tpch_queries,
    tpch_blocks_by_table_count,
    TPCH_TABLE_ROWS,
)
from repro.workloads.generator import (
    SyntheticWorkloadGenerator,
    GeneratedQuery,
    Topology,
)
from repro.workloads.sql import sql_workload
from repro.workloads.spec import FAMILY_HELP, ResolvedWorkload, resolve_workload
from repro.workloads.templates import (
    instantiate_template,
    template_names,
    template_schema,
    template_workload,
)

__all__ = [
    "tpch_schema",
    "tpch_statistics",
    "tpch_queries",
    "tpch_blocks_by_table_count",
    "TPCH_TABLE_ROWS",
    "SyntheticWorkloadGenerator",
    "GeneratedQuery",
    "Topology",
    "sql_workload",
    "FAMILY_HELP",
    "ResolvedWorkload",
    "resolve_workload",
    "instantiate_template",
    "template_names",
    "template_schema",
    "template_workload",
]
