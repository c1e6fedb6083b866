#!/usr/bin/env python
"""Choosing an order automatically, and seeing why it wins.

The paper's conclusion asks for exactly this workflow: predict the most
suitable enumeration order for a system and application instead of
benchmarking all ``h!`` of them.  This example

1. asks the advisor to rank placement classes of orders for concurrent
   16-rank alltoalls on a simulated 8-node Hydra,
2. renders the round-by-round timeline of the best and worst classes to
   show *where* the time goes (which hierarchy level bottlenecks), and
3. demonstrates the conclusion's other extensions: a mixed reordering
   (different orders for the two halves of the machine) and
   heterogeneous subcommunicator sizes.

Run:  python examples/order_advisor.py
"""

from repro.core.advisor import advise
from repro.core.dynamic import MixedReordering, heterogeneous_subcommunicators
from repro.core.hierarchy import Hierarchy
from repro.core.orders import format_order
from repro.core.reorder import RankReordering
from repro.ir import collective_program
from repro.netsim.trace import ascii_timeline, round_trace
from repro.topology.machines import hydra

TOPO = hydra(8)
H = Hierarchy((8, 2, 2, 8), ("node", "socket", "group", "core"))


def advisor_demo() -> tuple:
    advice = advise(TOPO, H, 16, "alltoall", scenario="all")
    print(advice.report())
    print()
    return advice.best.order, advice.worst.order


def timeline_demo(order, label: str) -> None:
    members = RankReordering(H, order, 16).all_comm_members()
    program = collective_program("alltoall", 16, 8e6, algorithm="pairwise")
    traces = round_trace(program, TOPO, members)
    print(f"{label} order {format_order(order)} — 16 concurrent alltoalls, 8 MB:")
    print(ascii_timeline(traces[:6], width=36))
    print("   ...\n")


def extensions_demo(best_order, worst_order) -> None:
    mixed = MixedReordering(H, 4, best_order, worst_order)
    members = mixed.comm_members(16)
    print(f"mixed reordering: nodes 0-3 use {format_order(best_order)}, "
          f"nodes 4-7 use {format_order(worst_order)}")
    print(f"  first communicator cores: {members[0].tolist()}")
    print(f"  last communicator cores:  {members[-1].tolist()}\n")

    layout = heterogeneous_subcommunicators(H, best_order, [128, 64, 32, 16, 16])
    print("heterogeneous subcommunicators (sizes 128/64/32/16/16) under "
          f"{format_order(best_order)}:")
    for size, sig in zip(layout.comm_sizes, layout.signatures()):
        print(f"  {size:>4} ranks: ring cost {sig.ring_cost:>4}, "
              f"pairs/level {[round(p) for p in sig.pair_percentages]}")


if __name__ == "__main__":
    best, worst = advisor_demo()
    timeline_demo(best, "best")
    timeline_demo(worst, "worst")
    extensions_demo(best, worst)
