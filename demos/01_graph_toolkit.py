"""Tour of the graph layer: enumeration, separation queries, equivalence.

Run with:  python demos/01_graph_toolkit.py
"""

from causaltext import (Dag, d_separated, dag_count, dag_extensions,
                        enumerate_dags, group_mecs, mec_of_dag,
                        relations_from_dag, skeleton, v_structures)

# Every labeled acyclic graph on a handful of nodes can be enumerated
# exactly. The counts grow fast: 25 graphs at three nodes, 3.78 million at
# six, which is where the toolkit caps itself.
for n in range(1, 6):
    print(f"{n} nodes: {dag_count(n):>6} DAGs")

# A chain A -> B -> C. Conditioning on the mediator blocks the only path.
chain = Dag(3, [(0, 1), (1, 2)])
print("\nchain A->B->C")
print("  A _||_ C given B :", d_separated(chain, 0, 2, {1}))
print("  A _||_ C given {} :", d_separated(chain, 0, 2))

# A collider A -> C <- B behaves the other way around: the pair starts out
# independent, and conditioning on the common effect couples it.
collider = Dag(3, [(0, 2), (1, 2)])
print("\ncollider A->C<-B")
print("  A _||_ B given {} :", d_separated(collider, 0, 1))
print("  A _||_ B given C :", d_separated(collider, 0, 1, {2}))

# All separation statements of a graph, capped at one conditioning variable:
# the full closure, not only the minimal separating sets.
print("\nstatements of the chain:",
      relations_from_dag(chain, max_cond=1, minimal=False).as_dict())

# Graphs with the same skeleton and the same colliders are observationally
# indistinguishable; grouping the 25 three-node graphs yields 11 classes.
mecs = group_mecs(list(enumerate_dags(3)))
print(f"\n3-node universe: {len(mecs)} equivalence classes")
for mec in mecs[:4]:
    print(f"  skeleton {sorted(mec.skeleton)} colliders {sorted(mec.vstructs)}"
          f" -> {len(mec.members)} member(s)")

# The class of the collider is a singleton: its orientation is fully
# identified. The chain shares its class with two other orientations.
print("\ncollider class size:", len(mec_of_dag(collider).members))
print("chain class size:   ", len(mec_of_dag(chain).members))

# A partially oriented matrix can be completed into every consistent member.
cpdag = mec_of_dag(chain).cpdag()
print("\nextensions of the chain's class matrix:")
for mask in dag_extensions(cpdag):
    member = Dag.from_mask(cpdag.n, mask)
    print("  edges:", sorted(member.edges),
          "skeleton:", sorted(skeleton(member)),
          "colliders:", sorted(v_structures(member)))
