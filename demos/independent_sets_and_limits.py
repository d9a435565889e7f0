"""Independent sets, their counts, and the infinite-intensity limit.

Which cells can transmit together is exactly the family of independent
sets of the contention graph.  As every cell's access intensity grows,
the stationary law concentrates on the maximum independent sets, so the
long-run unblocked fraction of cell i tends to (number of maximum
independent sets containing i) / (number of maximum independent sets).
This script prints those counts for a few small graphs and checks the
limit against a solved operating point at a large payload.
"""

import numpy as np

from cellwlan.dcf import backoff_preset, mac_phy_preset
from cellwlan.multicell import MulticellInput, solve_fixed_point
from cellwlan.topology import (enumerate_independent_sets, graph_from_edges,
                               mis_stats)

cases = {
    "three-chain": graph_from_edges([1, 2, 3], [(1, 2), (2, 3)]),
    "three-clique": graph_from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)]),
    "five-star": graph_from_edges([1, 2, 3, 4, 5],
                                  [(1, 2), (1, 3), (1, 4), (1, 5)]),
    "five-ring": graph_from_edges([1, 2, 3, 4, 5],
                                  [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]),
}

for name, g in cases.items():
    ss = enumerate_independent_sets(g)
    mis = mis_stats(g)
    states = ["{" + ",".join(map(str, s)) + "}" if s else "{}"
              for s in ss.states]
    print(f"\n{name}: {len(ss)} feasible states: {' '.join(states)}")
    print(f"  independence number {mis.max_size}, "
          f"{mis.count} maximum independent sets, "
          f"per-cell counts {mis.per_cell}")
    print(f"  x limit per cell: {np.round(mis.share, 4)}")
    print(f"  network throughput limit: "
          f"{mis.max_size:.4f} cells' worth")

# a solved operating point approaches the limit once intensities are large
g = cases["three-chain"]
mac = mac_phy_preset("dot11b-11mbps", payload_bits=8.0 * 1000)
sol = solve_fixed_point(MulticellInput(
    graph=g, node_counts=(10, 10, 10), mac_phy=mac,
    backoff=backoff_preset("dot11b-11mbps")))
share = mis_stats(g).share
print(f"\nthree-chain at 1000-byte payload, 10 nodes per cell:")
print(f"  solved x:  {np.round(sol.x, 4)}  (rho = {np.round(sol.rho, 1)})")
print(f"  x limit:   {np.round(share, 4)}")
print(f"  gap:       {np.round(np.abs(np.array(sol.x) - share), 4)}")
