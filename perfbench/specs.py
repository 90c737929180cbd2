"""Seeded inputs of the end-to-end benchmark (stdlib only).

Every workload spec, template pair and arrival order is drawn from one
``random.Random`` seeded with the workload seed, so the same seed always
yields the same inputs and the program under test only ever sees the
generated spec strings.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

#: The TPC-H blocks with five or more tables.
TPCH_BLOCKS = ("tpch:q02_main", "tpch:q05", "tpch:q07", "tpch:q08", "tpch:q09")

#: Generator instances per topology.  The pools hold the generator seeds whose
#: sessions cost within about 25% of each other, so a workload seed changes
#: which instances run, not how much work a round holds.
GENERATED_POOLS: Dict[str, Tuple[int, ...]] = {
    "gen:clique:5": (0, 1, 3, 4, 6),
    "gen:chain:8": (2, 3, 4, 6),
    "gen:star:6": (0, 1, 3, 4, 7),
}

#: The 2-5-join TPC-DS-style templates of the service workload.
SERVICE_TEMPLATES = (
    "ss_item_date",
    "ss_store_monthly",
    "ss_customer_funnel",
    "ss_address_rollup",
)
#: Template instantiation seeds the service workload draws from.
TEMPLATE_SEEDS = tuple(range(48))
#: One in this many arrivals of a template introduces a pair never requested
#: before (a fresh instantiation).
FRESH_EVERY = 5
#: Zipf exponent of the popularity of already-requested pairs.
ZIPF_EXPONENT = 1.1

#: Workload spec of the untimed warm-up (session workloads) ...
SESSION_WARMUP = "tpch:q03"
#: ... and of the service warm-up job (a seed outside ``TEMPLATE_SEEDS``).
SERVICE_WARMUP = "template:ss_item_date:1000"

PROBE = "probe"
FULL = "full"


def session_rounds(seed: int) -> Iterator[List[Tuple[str, str]]]:
    """Endless rounds of ``(kind, spec)``, every kind once per round.

    Generated kinds draw their instance from :data:`GENERATED_POOLS`; the
    order inside a round is shuffled.
    """
    rng = random.Random(f"sessions:{seed}")
    while True:
        round_ = [(kind, kind) for kind in TPCH_BLOCKS]
        for kind, pool in GENERATED_POOLS.items():
            round_.append((kind, f"{kind}:{rng.choice(pool)}"))
        rng.shuffle(round_)
        yield round_


def session_specs() -> List[str]:
    """Every spec a session round can hold (the recorded reference set)."""
    specs = list(TPCH_BLOCKS)
    for kind, pool in GENERATED_POOLS.items():
        specs.extend(f"{kind}:{instance}" for instance in pool)
    return specs


def template_spec(template: str, instance: int) -> str:
    return f"template:{template}:{instance}"


def service_pairs() -> List[str]:
    """Every template spec the service workload can request."""
    return [
        template_spec(template, instance)
        for template in SERVICE_TEMPLATES
        for instance in TEMPLATE_SEEDS
    ]


def service_arrivals(seed: int) -> Iterator[Tuple[str, str]]:
    """Endless ``(spec, PROBE|FULL)`` arrivals of the closed-loop client.

    Arrivals cycle through the templates in a shuffled order per cycle, so
    every run holds the same share of each template's cost.  Each
    template's arrivals repeat a pattern of :data:`FRESH_EVERY`: a
    one-invocation probe of a new pair, then the full request of that pair,
    then re-requests of the template's completed pairs with Zipf-skewed
    popularity (earliest completed is most popular).  The client waits for
    each job, so the cache status of every arrival (probe: miss, first full
    request: warm, later ones: hit) follows from the arrival order alone.
    The mix decides throughput, so the pattern keeps it the same for every
    seed; the seed picks the pairs, the re-requests and the order of
    templates.
    """
    rng = random.Random(f"arrivals:{seed}")
    unseen: Dict[str, List[str]] = {}
    for template in SERVICE_TEMPLATES:
        pairs = [template_spec(template, instance) for instance in TEMPLATE_SEEDS]
        random.Random(f"catalog:{seed}:{template}").shuffle(pairs)
        unseen[template] = pairs
    arrived = {template: 0 for template in SERVICE_TEMPLATES}
    probed: Dict[str, Optional[str]] = {template: None for template in SERVICE_TEMPLATES}
    completed: Dict[str, List[str]] = {template: [] for template in SERVICE_TEMPLATES}
    weights: Dict[str, List[float]] = {template: [] for template in SERVICE_TEMPLATES}
    while True:
        cycle = list(SERVICE_TEMPLATES)
        rng.shuffle(cycle)
        for template in cycle:
            step = arrived[template] % FRESH_EVERY
            arrived[template] += 1
            if step == 0 and unseen[template]:
                probed[template] = unseen[template].pop()
                yield probed[template], PROBE
            elif step == 1 and probed[template] is not None:
                spec, probed[template] = probed[template], None
                completed[template].append(spec)
                weights[template].append(1.0 / len(completed[template]) ** ZIPF_EXPONENT)
                yield spec, FULL
            else:
                yield rng.choices(completed[template], weights[template])[0], FULL


def expected_cache_status(arrivals: List[Tuple[str, str]]) -> List[str]:
    """The cache status each arrival must get from a pool with room to spare."""
    probed, completed = set(), set()
    statuses = []
    for spec, kind in arrivals:
        if kind == PROBE:
            statuses.append("miss")
            probed.add(spec)
        elif spec in completed:
            statuses.append("hit")
        else:
            statuses.append("warm" if spec in probed else "miss")
            completed.add(spec)
    return statuses
