"""Walk through the hexagon scene: three points around a hexagonal
obstacle, the tangent word that describes it, and the round trip from
word back to visibility graph.

Run:  python3 demos/hexagon_tour.py
"""

import os

from obsrep.sceneio import load_scene
from obsrep.tangent import builtin_pattern_table, decode_visibility, encode_tangent
from obsrep.visibility import visibility_details

HERE = os.path.dirname(__file__)


def main():
    scene, declared = load_scene(os.path.join(HERE, "data", "hexagon.json"))
    print(f"scene: {scene.n} points, {len(scene.obstacles)} obstacle")
    for i, p in enumerate(scene.points):
        print(f"  point {i + 1} at ({p.x}, {p.y})")

    graph, witnesses = visibility_details(scene)
    print("\nvisibility:")
    for i, j in graph.sorted_edges():
        print(f"  {i + 1} and {j + 1} see each other")
    for (i, j), blockers in sorted(witnesses.items()):
        names = ", ".join(f"obstacle {k + 1}" for k in blockers)
        print(f"  {i + 1} and {j + 1} are blocked by {names}")
    assert graph == declared, "the document's graph should match the geometry"

    # Walking the obstacle boundary once and writing down, in order, which
    # point each tangent line touches (+ for one tangent side, - for the
    # other) compresses the whole scene into a short circular word.
    word = encode_tangent(scene)
    print(f"\ntangent word: {word.serialize()}")

    decoded = decode_visibility(word, builtin_pattern_table())
    print("decoded from the word alone:")
    for i, j in decoded.sorted_edges():
        print(f"  edge {i + 1}-{j + 1}")
    assert decoded == graph, "the word alone determines the graph"
    print("\nround trip ok: the word carries exactly the visibility graph")


if __name__ == "__main__":
    main()
