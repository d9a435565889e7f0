"""Two independent checks of the analytic machinery.

First, the product-form stationary law: a trajectory of the on/off
process over feasible transmit sets, simulated with sampled holding
times, must reproduce the analytic distribution.  Second, the per-slot
collision probabilities: a slot-synchronous simulation with binomial
cellmate attempts and same-slot collisions must reproduce the solved
fixed point's per-cell collision probabilities.  Both run on the
three-cell chain with pinned seeds.
"""

import numpy as np

from cellwlan.dcf import (backoff_preset, frame_exchange_times,
                          mac_phy_preset)
from cellwlan.multicell import (MulticellInput, solve_fixed_point,
                                stationary_distribution)
from cellwlan.simkit import simulate_ctmc, simulate_slotted, slots_for
from cellwlan.topology import enumerate_independent_sets, graph_from_edges

graph = graph_from_edges([1, 2, 3], [(1, 2), (2, 3)])
space = enumerate_independent_sets(graph)

# trajectory average vs product form, arbitrary positive rates
rng = np.random.Generator(np.random.Philox(7))
lam = rng.uniform(0.5, 2.0, graph.size)
mu = rng.uniform(0.5, 2.0, graph.size)
pi = stationary_distribution(space, lam / mu)
run = simulate_ctmc(space, lam, mu, transitions=1_000_000, seed=4)
tv = 0.5 * float(np.abs(run.empirical_pi - pi).sum())
print("state occupancy, (analytic | simulated):")
for s, members in enumerate(space.states):
    name = "{" + ",".join(map(str, members)) + "}" if members else "{}"
    print(f"  {name:>7}: {pi[s]:.5f} | {run.empirical_pi[s]:.5f}")
print(f"total variation distance: {tv:.5f} over 1e6 transitions")

# slot-level collisions vs the solved fixed point
mac = mac_phy_preset("dot11b-11mbps", payload_bits=8.0 * 1000)
sol = solve_fixed_point(MulticellInput(
    graph=graph, node_counts=(2, 2, 2), mac_phy=mac,
    backoff=backoff_preset("dot11b-11mbps")))
t_s, t_c = frame_exchange_times(mac)
slotted = simulate_slotted(
    graph, (2, 2, 2), sol.beta, slots_for(t_s, mac.slot_time),
    slots_for(t_c, mac.slot_time), 1_000_000, seed=1)
print("\nper-cell collision probability, (analytic | simulated):")
for j, c in enumerate(graph.cells):
    print(f"  cell {c}: {sol.gamma[j]:.4f} | "
          f"{slotted.empirical_gamma[j]:.4f}")
print("per-cell unblocked fraction, (analytic | simulated):")
for j, c in enumerate(graph.cells):
    print(f"  cell {c}: {sol.x[j]:.4f} | {slotted.empirical_x[j]:.4f}")
