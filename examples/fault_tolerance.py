"""Fault tolerance: how many camera failures can the network absorb?

Full-view coverage can be brittle: the paper's Fig. 9 shows that one
badly-placed gap breaks it.  This example audits a deployed network
with the redundancy toolkit:

1. deploy a provisioned estate-surveillance fleet,
2. for a grid of audit points, compute the *breach cost* — the minimum
   number of cameras an adversary must disable to open an unsafe facing
   direction — and locate the weakest point,
3. compute a *minimum guard set* at the centre: the fewest cameras that
   alone keep it full-view covered (everything else is redundancy), and
4. verify the random-failure prediction: knocking out sensors at the
   weakest point's breach cost actually breaks it.

Run:  python examples/fault_tolerance.py
"""

import math

import numpy as np

from repro.core.full_view import is_full_view_covered, minimum_sensors_for_full_view
from repro.core.redundancy import breach_cost, minimum_guard_set, redundant_sensors
from repro.simulation.results import ResultTable
from repro.simulation.workloads import estate_surveillance


def main() -> None:
    workload = estate_surveillance().provisioned(q=1.5)
    theta = workload.theta
    fleet = workload.scheme.deploy(
        workload.profile, workload.n, np.random.default_rng(21)
    )
    print(f"{workload.description}: n = {workload.n}, theta = "
          f"{theta / math.pi:.2f}*pi, provisioned at 1.5x sufficient CSA\n")

    # 2. Audit grid: breach cost per point.
    audit = [(x, y) for x in np.linspace(0.1, 0.9, 5) for y in np.linspace(0.1, 0.9, 5)]
    costs = []
    for point in audit:
        dirs = fleet.covering_directions(point)
        costs.append((breach_cost(dirs, theta), point, dirs.size))
    costs.sort()
    weakest_cost, weakest_point, weakest_k = costs[0]
    strongest_cost, strongest_point, _ = costs[-1]
    table = ResultTable(
        title="Audit summary (25 points)",
        columns=["statistic", "breach_cost", "location"],
    )
    table.add_row("weakest point", weakest_cost, f"({weakest_point[0]:.2f}, {weakest_point[1]:.2f})")
    table.add_row("median point", costs[len(costs) // 2][0], "-")
    table.add_row("strongest point", strongest_cost, f"({strongest_point[0]:.2f}, {strongest_point[1]:.2f})")
    print(table.pretty())
    print(
        f"\nweakest point tolerates {weakest_cost - 1} arbitrary camera "
        f"losses (it is watched by {weakest_k} cameras, but only "
        f"{weakest_cost} of them guard its most fragile facing direction)."
    )

    # 3. Minimum guard set at the centre.
    centre = (0.5, 0.5)
    dirs = fleet.covering_directions(centre)
    guard = minimum_guard_set(dirs, theta)
    redundant = redundant_sensors(dirs, theta)
    lower_bound = minimum_sensors_for_full_view(theta)
    print(
        f"\ncentre point: {dirs.size} covering cameras, minimum guard set "
        f"= {len(guard)} (theoretical minimum ceil(pi/theta) = {lower_bound}); "
        f"{len(redundant)} cameras are individually redundant."
    )

    # 4. Adversarial verification at the weakest point.
    dirs = fleet.covering_directions(weakest_point)
    cost = breach_cost(dirs, theta)
    # Find the fragile facing direction: the 2*theta window with the
    # fewest viewed directions, then remove exactly those sensors.
    best_window = None
    for d in np.linspace(0, 2 * math.pi, 720, endpoint=False):
        offsets = np.abs(np.mod(dirs - d + math.pi, 2 * math.pi) - math.pi)
        inside = offsets <= theta
        if int(inside.sum()) == cost:
            best_window = inside
            break
    assert best_window is not None
    survivors = dirs[~best_window]
    print(
        f"\nadversarial check at the weakest point: disabling the "
        f"{cost} cameras guarding its fragile direction leaves coverage "
        f"= {is_full_view_covered(survivors, theta)} (expected False)."
    )


if __name__ == "__main__":
    main()
