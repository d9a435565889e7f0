"""Mean download delays for finite flows on the three-cell chain.

Downloads arrive at random, share their cell processor-sharing style,
and leave when done.  The service rate a cell sees depends on who else
has work.  Two couplings are compared: an even split of the single-cell
rate among busy neighbors, and a topology-aware split that gives each
busy cell its share of the maximum independent sets of the busy
subgraph (which can starve the middle cell outright).  Closed-form
delays from the effective-rate fixed point are checked against the
event simulation for both, at a sweep of flow sizes.
"""

import numpy as np

from cellwlan.flows import (FlowParams, SimConfig,
                            effective_rate_fixed_point, simulate_flow_network)
from cellwlan.topology import graph_from_edges

graph = graph_from_edges([1, 2, 3], [(1, 2), (2, 3)])
nu = (0.1, 0.1, 0.1)            # flow arrivals per second and cell
cfg = SimConfig(rng_seed=42, flows_per_cell=3000, warmup_flows=500,
                replications=12)

print("mean flow delay in seconds, arrival rate 0.1/s per cell, unit "
      "single-cell rate")
print(f"{'E[V]':>5} {'cell':>5} {'analytic':>9} {'sim split':>10} "
      f"{'sim topo':>9}")
for ev in (0.5, 1.0, 2.0, 3.0):
    topo = FlowParams(nu, ev, 1.0, service_model="model2")
    even = FlowParams(nu, ev, 1.0, service_model="model1")
    eff = effective_rate_fixed_point(graph, topo)
    sim_topo = simulate_flow_network(graph, topo, cfg)
    sim_even = simulate_flow_network(graph, even, cfg)
    for j, c in enumerate(graph.cells):
        print(f"{ev:>5.1f} {c:>5} {eff.mean_delay[j]:>9.3f} "
              f"{sim_even.mean_delay[j]:>10.3f} "
              f"{sim_topo.mean_delay[j]:>9.3f}")

print("""
Two things to read off the table.  The closed form tracks the simulated
topology-aware delays well at light load and drifts below them as flows
lengthen; it treats each cell as independently busy, which understates
how the chain's middle cell suffers when both edges stay loaded.  And
the even split is not a harmless simplification: it overserves the
middle cell whenever all three are busy, so the misallocation shows up
as extra delay in the edge cells, which the topology-aware model keeps
at their proper, lower values.
""")
