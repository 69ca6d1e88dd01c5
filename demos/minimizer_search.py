"""Exhaustive minimizer searches over small non-bipartite classes.

For each order n and pendant count k, every connected non-bipartite graph
with exactly k pendant vertices is covered, one isomorphism class at a time
(a core with the pendants placed on it), and its least Q-eigenvalue
computed; "graphs examined" counts the labeled graphs those classes hold.
The unique minimizing isomorphism class is always the triangle with a stem
path ending in a broom of pendant edges.  The unicyclic restriction is
also covered one isomorphism class at a time, each class generated as its
cycle with a rooted tree hung at every cycle vertex.
"""

from qminlab import ClassQuery, build_U_std, encode_graph6, find_extremal, is_isomorphic

print("order  pendants  graphs examined  minimum q_min   unique  matches broom")
for n in range(5, 7):
    for k in range(1, n - 2):
        result = find_extremal(ClassQuery(n=n, k=k), "min")
        expected, _ = build_U_std(n, k, 3)
        unique = len(result.witnesses) == 1
        match = unique and is_isomorphic(result.witnesses[0], expected)
        print(
            f"{n:>5}  {k:>8}  {result.graphs_examined:>15}  "
            f"{result.extremal_value:.12f}  {str(unique):>6}  {str(match):>5}"
        )

print()
print("witness for n=6, k=2 (graph6):",
      encode_graph6(find_extremal(ClassQuery(n=6, k=2), "min").witnesses[0]).decode())
print("matching family member        :",
      encode_graph6(build_U_std(6, 2, 3)[0]).decode())
print()
print("unicyclic restriction, girth 5, n=7:")
for k in (1, 2):
    result = find_extremal(ClassQuery(n=7, k=k, unicyclic_girth=5), "min")
    expected, _ = build_U_std(7, k, 5)
    print(
        f"  k={k}: examined {result.graphs_examined}, "
        f"value {result.extremal_value:.12f}, "
        f"unique witness matches: {is_isomorphic(result.witnesses[0], expected)}"
    )
