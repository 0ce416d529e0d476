"""Property-based tests (hypothesis) for the core invariants.

These encode the load-bearing identities of the paper's model:

* ``firstPeriod`` grows by at least peek+2 along every edge, so buffer
  windows are always ≥ 2 instances;
* the analytic period of any mapping is at least every lower bound the
  model implies, and the MILP never returns something worse than feasible
  heuristics or better than the brute-force optimum;
* brute force is an oracle independent of every search engine: on tiny
  DAGs its optimum bounds every strategy's output (``local_search`` on
  each evaluation engine, tabu, SA, GA, GREEDYCPU) and equals the MILP;
* max-min fair allocations never exceed port capacities and are Pareto
  (every flow is blocked by a saturated port);
* the ideal simulator converges to the analytic throughput, for random
  mappings and for the mappings the search strategies return.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_delta import ENGINES

from repro.complexity import optimal_mapping_brute_force
from repro.generator import assign_costs, random_topology
from repro.graph import ccr as graph_ccr
from repro.heuristics import (
    genetic_algorithm,
    greedy_cpu,
    local_search,
    random_mapping,
    simulated_annealing,
    tabu_search,
)
from repro.milp import solve_optimal_mapping
from repro.platform import CellPlatform
from repro.simulator import FlowNetwork, SimConfig, simulate
from repro.steady_state import (
    analyze,
    buffer_sizes,
    first_periods,
)

SMALL_TOPOLOGY = st.builds(
    random_topology,
    n_tasks=st.integers(2, 14),
    fat=st.floats(0.2, 1.2),
    regularity=st.floats(0.0, 1.0),
    density=st.floats(0.0, 1.0),
    jump=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)


#: DAGs small enough to enumerate every mapping on 1 PPE + 2 SPEs
#: (at most 3**6 = 729 mappings).
TINY_TOPOLOGY = st.builds(
    random_topology,
    n_tasks=st.integers(2, 6),
    fat=st.floats(0.2, 1.2),
    regularity=st.floats(0.0, 1.0),
    density=st.floats(0.0, 1.0),
    jump=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)


def graph_from(topology, seed, ccr=0.775):
    return assign_costs(topology, ccr=ccr, seed=seed)


@given(topology=SMALL_TOPOLOGY, seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_first_periods_monotone_and_windows_positive(topology, seed):
    graph = graph_from(topology, seed)
    fp = first_periods(graph)
    for edge in graph.edges():
        peek = graph.task(edge.dst).peek
        assert fp[edge.dst] >= fp[edge.src] + peek + 2
    for (src, dst), size in buffer_sizes(graph).items():
        window = fp[dst] - fp[src]
        assert window >= 2
        assert size == graph.edge(src, dst).data * window


@given(topology=SMALL_TOPOLOGY, seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_generator_hits_requested_ccr(topology, seed):
    graph = graph_from(topology, seed, ccr=1.3)
    if graph.n_edges:
        assert math.isclose(graph_ccr(graph), 1.3, rel_tol=1e-9)


@given(
    topology=SMALL_TOPOLOGY,
    seed=st.integers(0, 1000),
    map_seed=st.integers(0, 1000),
)
@settings(max_examples=30, deadline=None)
def test_period_lower_bounds(topology, seed, map_seed):
    graph = graph_from(topology, seed)
    platform = CellPlatform.qs22()
    mapping = random_mapping(graph, platform, seed=map_seed)
    analysis = analyze(mapping)
    # Any PE's own load bounds the period from below...
    for load in analysis.loads:
        assert analysis.period >= load.compute - 1e-9
    # ...and so does the heaviest single task on its assigned class.
    for task in graph.tasks():
        pe = mapping.pe_of(task.name)
        assert analysis.period >= task.cost_on(platform.kind(pe)) - 1e-9


@given(
    topology=SMALL_TOPOLOGY,
    seed=st.integers(0, 300),
)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_milp_never_worse_than_random_feasible(topology, seed):
    graph = graph_from(topology, seed)
    platform = CellPlatform(n_ppe=1, n_spe=2)
    milp = solve_optimal_mapping(graph, platform, mip_rel_gap=None)
    contender = random_mapping(graph, platform, seed=seed)
    contender_analysis = analyze(contender)
    if contender_analysis.feasible:
        assert milp.period <= contender_analysis.period + 1e-6


@given(topology=TINY_TOPOLOGY, seed=st.integers(0, 300))
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_brute_force_bounds_every_strategy_and_equals_milp(topology, seed):
    graph = graph_from(topology, seed)
    platform = CellPlatform(n_ppe=1, n_spe=2)
    _, optimum = optimal_mapping_brute_force(graph, platform)
    milp = solve_optimal_mapping(graph, platform, mip_rel_gap=None)
    assert milp.period == pytest.approx(optimum, rel=1e-6)
    start = greedy_cpu(graph, platform)
    outputs = {"greedy_cpu": start}
    for engine in ENGINES:
        outputs["local_search/" + engine] = local_search(start, backend=engine)
    outputs["tabu_search"] = tabu_search(graph, platform, seed=seed)
    outputs["simulated_annealing"] = simulated_annealing(
        graph, platform, seed=seed
    )
    outputs["genetic_algorithm"] = genetic_algorithm(graph, platform, seed=seed)
    for name, mapping in outputs.items():
        analysis = analyze(mapping)
        if analysis.feasible:
            assert optimum <= analysis.period, name


@given(
    n_ports=st.integers(2, 6),
    n_flows=st.integers(1, 12),
    seed=st.integers(0, 10_000),
    bw=st.floats(1.0, 1e5),
)
@settings(max_examples=60, deadline=None)
def test_maxmin_capacity_and_pareto(n_ports, n_flows, seed, bw):
    import random

    rng = random.Random(seed)
    caps = {}
    for p in range(n_ports):
        caps[("out", p)] = bw
        caps[("in", p)] = bw
    net = FlowNetwork(caps)
    flows = [
        net.start_flow(
            ("out", rng.randrange(n_ports)),
            ("in", rng.randrange(n_ports)),
            rng.uniform(1, 100),
        )
        for _ in range(n_flows)
    ]
    net.allocate()
    net.check_capacities()
    usage = net.utilisation()
    # Pareto optimality: no flow can be sped up without hurting another.
    for f in flows:
        ports = [p for p in (f.src_port, f.dst_port)]
        assert any(usage[p] >= bw * (1 - 1e-6) for p in ports)
    # Every flow makes progress.
    assert all(f.rate > 0 for f in flows)


@given(
    topology=SMALL_TOPOLOGY,
    seed=st.integers(0, 200),
    map_seed=st.integers(0, 50),
)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_ideal_simulation_matches_model(topology, seed, map_seed):
    graph = graph_from(topology, seed)
    platform = CellPlatform.qs22().with_spes(3)
    mappings = (
        random_mapping(graph, platform, seed=map_seed),
        local_search(greedy_cpu(graph, platform)),
        tabu_search(graph, platform, seed=map_seed),
    )
    for mapping in mappings:
        analysis = analyze(mapping)
        if not analysis.feasible:
            continue
        result = simulate(mapping, 400, SimConfig.ideal())
        assert result.efficiency() >= 0.93
        assert result.steady_state_throughput() <= analysis.throughput * 1.07


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_fptas_dominated_by_guarantee(data):
    from repro.complexity import (
        MultiprocessorInstance,
        exact_two_machines_dp,
        fptas_two_machines,
    )

    n = data.draw(st.integers(1, 10))
    l1 = data.draw(
        st.lists(st.floats(0.1, 50), min_size=n, max_size=n)
    )
    l2 = data.draw(
        st.lists(st.floats(0.1, 50), min_size=n, max_size=n)
    )
    eps = data.draw(st.sampled_from([0.5, 0.2, 0.05]))
    instance = MultiprocessorInstance.from_lists(l1, l2, bound=1.0)
    exact = exact_two_machines_dp(instance)
    value, allocation = fptas_two_machines(instance, eps)
    assert value <= exact * (1 + eps) + 1e-9
    assert math.isclose(instance.makespan(allocation), value, rel_tol=1e-9)
