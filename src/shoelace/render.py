"""Graphviz DOT renderings.

hasse_dot draws a proset the way the diagrams in this package are usually
drawn: mutually related elements are grouped, covers between groups become
upward edges, and two-way relations inside a group are drawn explicitly.
support_dot draws each summand of a decomposed shoelace representation as a
cluster over the doubled window carrier.
"""

from __future__ import annotations

from operator import and_

from .proset import Proset
from .zed import DecomposedShoelaceRep, lambda_eps, summand_support


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def hasse_dot(p: Proset) -> str:
    """The Hasse diagram of p in DOT.  A class is the set bits of up & down.
    Covers between classes are the one-way generating edges, in order of
    the least members of both classes, then of the ends; a class of two or
    more is drawn as a cycle that does not constrain the layout."""
    least = [(c & -c).bit_length() - 1 for c in map(and_, p.up, p.down)]
    lines = ["digraph hasse {", "  rankdir=BT;", '  node [shape=plaintext];']
    for i in range(p.n):
        lines.append(f"  n{i} [label={_quote(p.label(i))}];")
    # the edges come in (j, k) order, so a stable sort on the pair of classes
    # keeps that order within each pair, at one int key per cover
    n = p.n
    covers = [e for e in p.generating_edges if not p.leq(e[1], e[0])]
    covers.sort(key=lambda e: least[e[0]] * n + least[e[1]])
    lines.extend(f"  n{j} -> n{k};" for (j, k) in covers)
    classes: dict[int, list[int]] = {}
    for i, x in enumerate(least):
        classes.setdefault(x, []).append(i)
    for cls in classes.values():
        if len(cls) > 1:
            lines.extend(f"  n{x} -> n{y} [constraint=false];"
                         for x, y in zip(cls, cls[1:] + cls[:1]))
    lines.append("}")
    return "\n".join(lines) + "\n"


def support_dot(l: DecomposedShoelaceRep) -> str:
    w = l.window
    lam = lambda_eps(w, l.epsilon)
    lines = ["digraph support {", "  rankdir=LR;", "  node [shape=box];"]
    for k, summand in enumerate(l.summands):
        support = sorted(summand_support(summand, w, l.epsilon))
        lines.append(f"  subgraph cluster_{k} {{")
        lines.append(f"    label={_quote(f'summand {k}')};")
        for e in support:
            if e < w.size:
                name = str(w.value(e))
            else:
                name = str(w.value(e - w.size)) + "'"
            lines.append(f"    s{k}_{e} [label={_quote(name)}];")
        sset = set(support)
        for e in support:
            if e < w.size and e + 1 in sset:
                lines.append(f"    s{k}_{e} -> s{k}_{e + 1};")
            if e >= w.size and e + 1 < 2 * w.size and e + 1 in sset:
                lines.append(f"    s{k}_{e} -> s{k}_{e + 1};")
        for e in support:
            if e < w.size:
                t = w.size + lam.mapping[e]
                if lam.mapping[e] == e + l.epsilon and t in sset:
                    lines.append(f"    s{k}_{e} -> s{k}_{t};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
