"""Reference answers computed without the package under test.

Automata here are plain dicts, the benchmark's own model of the file format:

    {"n": states, "initial": q0, "inputs": [names], "outputs": [names],
     "delta": [[(target, output position) per input] per state],
     "acc": (kind, data)}

with kind "muller" (frozenset of output bitsets), "parity" (one priority per
output), "rabin" ((meet, avoid) bitset pairs) or "genbuchi" (bitsets that
must all be met).  Nothing in this module imports mullertools, so a defect in
the package cannot hide behind a shared helper.
"""
from __future__ import annotations

import itertools
import json


def accepts(acc, bits: int) -> bool:
    """Whether a non-empty colour bitset satisfies an acceptance."""
    kind, data = acc
    if kind == "muller":
        return bits in data
    if kind == "parity":
        return max(p for i, p in enumerate(data) if bits >> i & 1) % 2 == 0
    if kind == "rabin":
        return any(bits & meet and not bits & avoid for meet, avoid in data)
    if kind == "genbuchi":
        return all(bits & s for s in data)
    raise ValueError(f"unknown acceptance kind {kind!r}")


def lasso_colours(aut: dict, prefix, period) -> int:
    """Output colours seen infinitely often on prefix . period^omega; letters
    are input positions."""
    delta = aut["delta"]
    state = aut["initial"]
    for a in prefix:
        state = delta[state][a][0]
    seen = {}
    starts = []
    while state not in seen:
        seen[state] = len(starts)
        starts.append(state)
        for a in period:
            state = delta[state][a][0]
    colours = 0
    for _ in range(seen[state], len(starts)):
        for a in period:
            state, out = delta[state][a]
            colours |= 1 << out
    return colours


def lasso_accepted(aut: dict, prefix, period) -> bool:
    return accepts(aut["acc"], lasso_colours(aut, prefix, period))


def closed_walk_sets(n_nodes: int, edges, start: int) -> set[int]:
    """Colour bitsets of closed walks through start.

    Saturates (node, colours so far) pairs from the edges leaving start.
    Every strongly connected edge set through start is traced by a closed
    walk and conversely, so these are exactly the cycle sets realisable at
    start.  Edges are (src, dst, colour bitset) triples.
    """
    adj = [[] for _ in range(n_nodes)]
    for src, dst, bit in edges:
        adj[src].append((dst, bit))
    seen = set()
    frontier = []
    for dst, bit in adj[start]:
        if (dst, bit) not in seen:
            seen.add((dst, bit))
            frontier.append((dst, bit))
    found = set()
    while frontier:
        node, mask = frontier.pop()
        if node == start:
            found.add(mask)
        for dst, bit in adj[node]:
            key = (dst, mask | bit)
            if key not in seen:
                seen.add(key)
                frontier.append(key)
    return found


def automaton_edges(aut: dict):
    return [(q, target, 1 << out) for q, row in enumerate(aut["delta"])
            for target, out in row]


def union_witness(acc, realisable) -> bool:
    """Whether two rejecting sets in the family have an accepting union.

    The family must be closed under union (closed walks through one state
    are).  Then such a pair exists exactly when the union of all rejecting
    members below some bitset is accepting: adding those members one at a
    time, the step where the running union turns accepting is the pair.
    """
    rejecting = [bits for bits in realisable if not accepts(acc, bits)]
    used = 0
    for bits in rejecting:
        used |= bits
    positions = [i for i in range(used.bit_length()) if used >> i & 1]
    place = {p: i for i, p in enumerate(positions)}
    width = len(positions)
    covered = [0] * (1 << width)
    for bits in rejecting:
        key = 0
        for p in positions:
            if bits >> p & 1:
                key |= 1 << place[p]
        covered[key] = bits
    for i in range(width):
        step = 1 << i
        for m in range(1 << width):
            if m & step:
                covered[m] |= covered[m ^ step]
    return any(u and accepts(acc, u) for u in covered)


def rabin_typeable_at(aut: dict, state: int) -> bool:
    """Rejecting cycle sets through the state are closed under union."""
    sets = closed_walk_sets(aut["n"], automaton_edges(aut), state)
    return not union_witness(aut["acc"], sets)


def brute_chromatic(n_vertices: int, edges) -> int:
    """Fewest colour classes, by trying every assignment."""
    for k in range(1, n_vertices + 1):
        for assignment in itertools.product(range(k), repeat=n_vertices):
            if all(assignment[u - 1] != assignment[v - 1] for u, v in edges):
                return k
    raise ValueError("a loop-free graph always has a colouring")


# ---------------------------------------------------------------------------
# Alternating-subset (Zielonka) trees of explicit conditions.

def _maximal(family):
    items = sorted(set(family))
    return [s for s in items if not any(t != s and s & t == s for t in items)]


def zielonka(n_colours: int, accepting: frozenset):
    """Tree as nested (label, accepting, children) tuples, children ordered
    by label."""

    def build(label: int, acc: bool):
        below = []
        sub = (label - 1) & label
        while sub:
            if (sub in accepting) != acc:
                below.append(sub)
            sub = (sub - 1) & label
        return (label, acc, tuple(build(s, not acc) for s in _maximal(below)))

    full = (1 << n_colours) - 1
    return build(full, full in accepting)


def leaf_count(tree) -> int:
    return 1 if not tree[2] else sum(leaf_count(c) for c in tree[2])


def tree_parity_automaton(n_colours: int, accepting: frozenset) -> dict:
    """Deterministic parity automaton over the tree's leaves.

    Reading a letter at a leaf climbs to the deepest node on the leaf's
    branch whose label holds the letter, emits that node's priority (even on
    accepting nodes, lower with depth), and moves to the first leaf under the
    next child of that node, cyclically.  Its language is the condition.
    """
    tree = zielonka(n_colours, accepting)
    branches = []

    def walk(node, path):
        path = path + (node,)
        if not node[2]:
            branches.append(path)
        for child in node[2]:
            walk(child, path)

    walk(tree, ())
    first_leaf = {}
    for i, path in enumerate(branches):
        for node in path:
            first_leaf.setdefault(id(node), i)
    height = max(len(p) for p in branches)
    top = height - 1 if (height - 1) % 2 == (0 if tree[1] else 1) else height
    delta = []
    for path in branches:
        row = []
        for a in range(n_colours):
            depth = max(d for d, node in enumerate(path) if node[0] >> a & 1)
            node = path[depth]
            if depth == len(path) - 1:
                target = first_leaf[id(node)]
            else:
                kids = node[2]
                nxt = kids[(kids.index(path[depth + 1]) + 1) % len(kids)]
                target = first_leaf[id(nxt)]
            row.append((target, top - depth))
        delta.append(row)
    return {"n": len(branches), "initial": 0,
            "inputs": [f"c{a}" for a in range(n_colours)],
            "outputs": [f"p{p}" for p in range(top + 1)],
            "delta": delta, "acc": ("parity", list(range(top + 1)))}


# ---------------------------------------------------------------------------
# Reading the package's JSON output back into the model above.

def parse_automaton(text: str) -> dict:
    data = json.loads(text)
    inputs, outputs = data["input"], data["output"]
    ipos = {s: i for i, s in enumerate(inputs)}
    opos = {s: i for i, s in enumerate(outputs)}
    n = data["states"]
    delta = [[None] * len(inputs) for _ in range(n)]
    for q, sym, target, out in data["delta"]:
        delta[q][ipos[sym]] = (target, opos[out])

    def bits(names):
        out = 0
        for s in names:
            out |= 1 << opos[s]
        return out

    acc = data["acceptance"]
    kind = acc["kind"]
    if kind == "muller":
        data_acc = frozenset(bits(s) for s in acc["accepting"])
    elif kind == "parity":
        data_acc = [acc["priorities"][s] for s in outputs]
    elif kind == "rabin":
        data_acc = [(bits(e), bits(f)) for e, f in acc["pairs"]]
    elif kind == "genbuchi":
        data_acc = [bits(s) for s in acc["sets"]]
    else:
        raise ValueError(f"unexpected acceptance kind {kind!r}")
    return {"n": n, "initial": data["initial"], "inputs": inputs,
            "outputs": outputs, "delta": delta, "acc": (kind, data_acc)}


def same_language_on(a: dict, b: dict, words) -> bool:
    """Agreement on the given lassos; letters are positions in a's inputs."""
    remap = [b["inputs"].index(s) for s in a["inputs"]]
    for prefix, period in words:
        if lasso_accepted(a, prefix, period) != lasso_accepted(
                b, [remap[x] for x in prefix], [remap[x] for x in period]):
            return False
    return True
