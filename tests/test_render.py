"""hasse_dot: golden text, and the class and cover loops it replaced, kept as
the reference."""

import json
import random
import time
import tracemalloc

from hypothesis import given, settings
import hypothesis.strategies as st

from shoelace.cli import main
from shoelace.proset import Proset, Translation, chain, proset_from_pairs, shoelace
from shoelace.render import _quote, hasse_dot
from shoelace.selftest import _rand_translation


def reference_hasse_dot(p):
    """Group by mutual relation, classes in order of least member; an edge
    from every member of a class to every member of each class covering it;
    a cycle through each class of two or more."""
    seen = [False] * p.n
    classes = []
    for i in range(p.n):
        if seen[i]:
            continue
        cls = [j for j in range(p.n) if p.leq(i, j) and p.leq(j, i)]
        for j in cls:
            seen[j] = True
        classes.append(cls)

    def cls_lt(a, b):
        return a != b and p.leq(classes[a][0], classes[b][0])

    lines = ["digraph hasse {", "  rankdir=BT;", '  node [shape=plaintext];']
    for i in range(p.n):
        lines.append(f"  n{i} [label={_quote(p.label(i))}];")
    for a in range(len(classes)):
        for b in range(len(classes)):
            if not cls_lt(a, b):
                continue
            if any(cls_lt(a, c) and cls_lt(c, b) for c in range(len(classes))):
                continue
            for x in classes[a]:
                for y in classes[b]:
                    lines.append(f"  n{x} -> n{y};")
    for cls in classes:
        if len(cls) < 2:
            continue
        for k in range(len(cls)):
            x, y = cls[k], cls[(k + 1) % len(cls)]
            lines.append(f"  n{x} -> n{y} [constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"


HEAD = 'digraph hasse {\n  rankdir=BT;\n  node [shape=plaintext];\n'


def test_worked_example_carrier():
    p = chain(3, ("1", "2", "3"))
    sh = shoelace(p, Translation(p, (1, 2, 2)))
    assert hasse_dot(sh) == HEAD + (
        '  n0 [label="1"];\n  n1 [label="2"];\n  n2 [label="3"];\n'
        '  n3 [label="1\'"];\n  n4 [label="2\'"];\n  n5 [label="3\'"];\n'
        '  n0 -> n1;\n  n0 -> n4;\n  n1 -> n2;\n  n1 -> n5;\n'
        '  n3 -> n1;\n  n3 -> n4;\n  n4 -> n2;\n  n4 -> n5;\n'
        '  n2 -> n5 [constraint=false];\n  n5 -> n2 [constraint=false];\n}\n')


def test_a_class_of_three_with_gaps():
    """{0, 2, 4} is one class, with 1 below it and 3 above it: covers go in
    order of the least members of both classes, and the class is a cycle."""
    p = proset_from_pairs(5, [(0, 2), (2, 4), (4, 0), (1, 2), (4, 3)])
    assert hasse_dot(p) == HEAD + (
        '  n0 [label="0"];\n  n1 [label="1"];\n  n2 [label="2"];\n'
        '  n3 [label="3"];\n  n4 [label="4"];\n'
        '  n0 -> n3;\n  n2 -> n3;\n  n4 -> n3;\n'
        '  n1 -> n0;\n  n1 -> n2;\n  n1 -> n4;\n'
        '  n0 -> n2 [constraint=false];\n  n2 -> n4 [constraint=false];\n'
        '  n4 -> n0 [constraint=false];\n}\n')


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_hasse_dot_agrees_with_the_class_loops(seed):
    """On random prosets, with and without quoted labels, and their carriers."""
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    p = proset_from_pairs(
        n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))],
        None if rng.random() < 0.5 else [f'x"{i}' for i in range(n)])
    for q in (p, shoelace(p, _rand_translation(rng, p))):
        assert hasse_dot(q) == reference_hasse_dot(q)


def test_render_two_layers_of_200_points(tmp_path, capsys):
    """Every lower point below every upper point: 40,000 covers, written
    from the generating edges rather than a cubic loop over classes."""
    h = 200
    rel = [[int(i == j or i < h <= j) for j in range(2 * h)] for i in range(2 * h)]
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"kind": "proset", "version": "1", "payload": {
        "n": 2 * h, "labels": None, "rel": rel}}), encoding="utf-8")
    start = time.perf_counter()
    assert main(["render", "--file", str(path)]) == 0
    assert time.perf_counter() - start < 2
    out = capsys.readouterr().out
    assert out.count(" -> ") == h * h
    assert "  n0 -> n200;\n  n0 -> n201;\n" in out
    assert out.endswith("  n199 -> n399;\n}\n")


def test_hasse_dot_of_two_layers_of_400_points_peaks_under_22_mib():
    """160,000 covers, sorted by one int key each: with the generating
    edges built beforehand, drawing them peaks at about 17 MiB."""
    h = 400
    upper = ((1 << h) - 1) << h
    p = Proset._trusted(2 * h, tuple(1 << i | (upper if i < h else 0)
                                     for i in range(2 * h)), None)
    assert len(p.generating_edges) == h * h
    tracemalloc.start()
    try:
        out = hasse_dot(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.count(" -> ") == h * h
    assert peak < 22 * 2 ** 20
