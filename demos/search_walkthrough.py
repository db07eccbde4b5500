"""How many obstacles does a graph need?

Searches placements for the 4-cycle, replays the certified witness, then
walks an edge-deletion chain from the complete graph on four vertices and
watches the obstacle bound climb one step at a time.

Run:  python3 demos/search_walkthrough.py
"""

from obsrep.graphs import Graph, cycle_graph
from obsrep.search import edge_deletion_chain, obs_upper_bound, replay_witness


def main():
    c4 = cycle_graph(4)
    print("searching placements for the 4-cycle (two missing diagonals)...")
    result = obs_upper_bound(c4, placements=64, seed=7)
    print(f"  upper bound {result.upper_bound}, "
          f"certified exact: {result.certified_exact}")
    print("  witness placement:")
    for i, p in enumerate(result.points):
        print(f"    point {i + 1} at ({p.x}, {p.y})")
    print(f"  faces standing in for obstacles: "
          f"{[f + 1 for f in result.faces]}")
    print(f"  witness replays from scratch: {replay_witness(c4, result)}")

    # Deleting one edge at a time can only add one obstacle at a time: the
    # witness for the smaller graph reuses the previous placement with one
    # extra face, so the bound never jumps.
    print("\ndeleting the complete graph on 4 vertices down to nothing:")
    record = edge_deletion_chain(Graph(4), seed=5, order="lex", placements=40)
    for t, step in enumerate(record.steps):
        what = ("complete graph" if step.deleted is None
                else "removed edge %d-%d" % tuple(v + 1 for v in step.deleted))
        mark = "certified" if step.result.certified_exact else "upper bound only"
        print(f"  step {t}: {what:20s} -> {step.result.upper_bound} ({mark})")
    bounds = [step.result.upper_bound for step in record.steps]
    print(f"  bounds along the chain: {bounds}")
    for bound, t in record.first_reached:
        print(f"  first graph needing {bound}: step {t}")


if __name__ == "__main__":
    main()
