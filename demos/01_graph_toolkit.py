"""Tour of the graph layer: enumeration, separation statements, equivalence
classes, and the members a solved premise leaves open.

Run with:  python demos/01_graph_toolkit.py
"""

from causaltext import Dag, dag_count, dag_extensions, relations_from_dag, solve_text
from causaltext.graphs import mec_index

# Every labeled acyclic graph on a handful of nodes can be enumerated
# exactly. The counts grow fast: 25 graphs at three nodes, 3.78 million at
# six, which is where the toolkit caps itself.
for n in range(1, 7):
    print(f"{n} nodes: {dag_count(n):>7} DAGs")

# A chain A -> B -> C. Conditioning on the mediator blocks the only path, so
# the pair A, C is independent given B and given nothing else.
chain = Dag(3, [(0, 1), (1, 2)])
print("\nchain A->B->C:", relations_from_dag(chain, minimal=False).as_dict())

# A collider A -> C <- B behaves the other way around: the pair starts out
# independent, and conditioning on the common effect couples it.
collider = Dag(3, [(0, 2), (1, 2)])
print("collider A->C<-B:", relations_from_dag(collider, minimal=False).as_dict())

# Graphs with the same skeleton and the same colliders are observationally
# indistinguishable. The index groups every DAG on n nodes into these
# equivalence classes, each a block of member edge bitmasks; the 25
# three-node graphs fall into 11 classes.
print()
for n in range(1, 6):
    print(f"{n} nodes: {mec_index(n).group_count:>4} classes")
idx = mec_index(3)
for g in range(4):
    members = [sorted(Dag.from_mask(3, int(m)).edges) for m in idx.member_masks(g)]
    print(f"  class {g}: skeleton {sorted(idx.skeleton_set(g))}"
          f" colliders {sorted(idx.vstruct_set(g))} -> {members}")

# Solving the chain's premise recovers its skeleton but no orientation; the
# final matrix extends to the three DAGs of the chain's class.
premise = ("Suppose that there is a closed system of 3 variables, A, B and C. "
           "All statistical relations among these 3 variables are as follows: "
           "A correlates with B. B correlates with C. "
           "However, A and C are independent given B.")
final = solve_text(premise).trace.final
print("\nextensions of the chain premise's final matrix:")
for mask in dag_extensions(final):
    print("  edges:", sorted(Dag.from_mask(final.n, mask).edges))
