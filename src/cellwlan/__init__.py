"""Cell-level throughput and flow-delay analysis for multi-cell WLANs.

Model a deployment of CSMA/CA cells whose access points contend pairwise
(each cell pair either always senses each other or never does), compute
per-cell saturation and TCP throughputs from a product-form stationary
law over the contention graph's independent sets, and analyze flow-level
delays when finite downloads share the cells.
"""

from .dcf import (BackoffParams, ConvergenceError, MacPhyParams,
                  attempt_probability, backoff_preset, frame_exchange_times,
                  mac_phy_preset, mean_backoffs, solve_single_cell)
from .flows import (DelayResult, FlowParams, SimConfig,
                    effective_rate_fixed_point, service_rate_table,
                    simulate_flow_network)
from .multicell import (FixedPointConfig, MulticellInput, MulticellSolution,
                        SweepPoint, TcpLongResult, activation_rate,
                        collision_probability, frontier_law,
                        mean_activity_time, partition_function,
                        payload_sweep, solve_fixed_point,
                        stationary_distribution, tcp_long_throughputs,
                        unblocked_fraction)
from .simkit import (CtmcRun, SlottedRun, simulate_ctmc, simulate_slotted,
                     slots_for)
from .topology import (CellGeom, ContentionGraph, Deployment, FrontierPlan,
                       MisStats, PbdReport, StateSpace, StateSpaceCapError,
                       adjacency_text, bfs_order, build_contention_graph,
                       check_pbd, dot_edges, enumerate_independent_sets,
                       frontier_plan, frontier_steps, frontier_width,
                       graph_from_edges, mis_share_table, mis_stats)

__version__ = "0.1.0"
