"""Seeded inputs for the three workloads, standard library only.

build(workload, seed) returns the files to write and the command list of one
pass.  Each case carries the answer the checker expects, worked out here or
in oracle.py, never by mullertools.  The same (workload, seed) always gives
byte-identical files and cases.

Random instances are drawn once from a stream fixed per workload (the pool),
and --seed draws a fresh relabelling of each: vertex, state, letter and
colour names and the order of edges.  On these exponential searches the cost
of two random instances of one size differs up to fivefold, so fresh draws
per seed would make the seed, not the program, set the spread between runs;
a relabelled instance keeps its answer and its work to within about 15%.
"""
from __future__ import annotations

import json
import random

from oracle import (accepts, brute_chromatic, lasso_colours, leaf_count,
                    tree_parity_automaton, zielonka)

WORKLOADS = ("chromatic-memory", "muller-games", "automata-check")

LETTERS = "abcdefghijklmn"


def _pool(workload: str, part: str) -> random.Random:
    # string seeds hash with SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}/pool/{part}")


def _seeded(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{part}")


def _perm(rng: random.Random, n: int) -> list[int]:
    out = list(range(n))
    rng.shuffle(out)
    return out


def _map_bits(bits: int, perm) -> int:
    out = 0
    for i, j in enumerate(perm):
        if bits >> i & 1:
            out |= 1 << j
    return out


# ---------------------------------------------------------------------------
# File formats of the command line tool.

def condition_text(names, accepting) -> str:
    family = []
    for bits in sorted(accepting):
        family.append([names[i] for i in range(len(names)) if bits >> i & 1])
    return json.dumps({"alphabet": list(names), "accepting": family})


def automaton_text(aut: dict) -> str:
    outputs = aut["outputs"]

    def names(bits):
        return [outputs[i] for i in range(len(outputs)) if bits >> i & 1]

    kind, data = aut["acc"]
    if kind == "muller":
        acc = {"kind": "muller", "alphabet": outputs,
               "accepting": [names(b) for b in sorted(data)]}
    elif kind == "parity":
        acc = {"kind": "parity",
               "priorities": {s: data[i] for i, s in enumerate(outputs)}}
    elif kind == "rabin":
        acc = {"kind": "rabin", "pairs": [[names(e), names(f)] for e, f in data]}
    else:
        acc = {"kind": kind, "sets": [names(s) for s in data]}
    delta = [[q, aut["inputs"][a], target, outputs[out]]
             for q, row in enumerate(aut["delta"])
             for a, (target, out) in enumerate(row)]
    return json.dumps({"states": aut["n"], "initial": aut["initial"],
                       "input": aut["inputs"], "output": outputs,
                       "delta": delta, "acceptance": acc})


def game_text(arena: dict, accepting) -> str:
    names = arena["colours"]
    return json.dumps({
        "vertices": [{"id": v, "owner": "eve" if e else "adam"}
                     for v, e in enumerate(arena["eve"])],
        "initial": arena["initial"],
        "edges": [{"from": s, "to": t, "colour": names[c]}
                  for s, t, c in arena["edges"]],
        "condition": json.loads(condition_text(names, accepting)),
    })


def strategy_text(arena: dict) -> str:
    """One-state colour-driven strategy taking the first edge listed out of
    each of the colour player's vertices."""
    names = arena["colours"]
    chosen = {}
    for e, (s, _, _) in enumerate(arena["edges"]):
        if arena["eve"][s]:
            chosen.setdefault(s, e)
    return json.dumps({
        "memory": {"states": 1, "initial": 0, "kind": "chromatic",
                   "update": [[0, c, 0] for c in names]},
        "table": [{"vertex": v, "mstate": 0, "edge": e}
                  for v, e in sorted(chosen.items())]})


def dual_game_text(text: str) -> str:
    """The same arena with the players swapped and the condition complemented:
    by determinacy its colour player wins exactly when the original's
    opponent does."""
    data = json.loads(text)
    for vertex in data["vertices"]:
        vertex["owner"] = "adam" if vertex["owner"] == "eve" else "eve"
    names = data["condition"]["alphabet"]
    accepting = {sum(1 << names.index(s) for s in group)
                 for group in data["condition"]["accepting"]}
    rest = frozenset(range(1, 1 << len(names))) - accepting
    data["condition"] = json.loads(condition_text(names, rest))
    return json.dumps(data)


def dimacs_text(n: int, edges) -> str:
    lines = [f"p edge {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random objects and their relabelling.

def random_family(rng: random.Random, n_colours: int) -> frozenset:
    return frozenset(b for b in range(1, 1 << n_colours) if rng.random() < 0.5)


def random_automaton(rng, n_states, n_in, n_out, acc) -> dict:
    delta = [[(rng.randrange(n_states), rng.randrange(n_out))
              for _ in range(n_in)] for _ in range(n_states)]
    return {"n": n_states, "initial": 0, "inputs": list(LETTERS[:n_in]),
            "outputs": [str(i) for i in range(n_out)], "delta": delta,
            "acc": acc}


def inflate(aut: dict, rng: random.Random, copies: int) -> dict:
    """Same language, copies times the states: every state is duplicated and
    each transition goes to a random copy of its old target."""
    n = aut["n"]
    delta = [[(target + n * rng.randrange(copies), out)
              for target, out in aut["delta"][q % n]]
             for q in range(n * copies)]
    return dict(aut, n=n * copies, delta=delta)


def relabel_automaton(aut: dict, rng: random.Random, letters=None, colours=None) -> dict:
    """Isomorphic copy: states, input letters and output colours permuted.
    Pass the same letter and colour permutations to keep a pair comparable."""
    states = _perm(rng, aut["n"])
    letters = letters or _perm(rng, len(aut["inputs"]))
    colours = colours or _perm(rng, len(aut["outputs"]))
    inputs = [None] * len(letters)
    for a, b in enumerate(letters):
        inputs[b] = aut["inputs"][a]
    outputs = [None] * len(colours)
    for o, p in enumerate(colours):
        outputs[p] = aut["outputs"][o]
    delta = [None] * aut["n"]
    for q, row in enumerate(aut["delta"]):
        new_row = [None] * len(row)
        for a, (target, out) in enumerate(row):
            new_row[letters[a]] = (states[target], colours[out])
        delta[states[q]] = new_row
    kind, data = aut["acc"]
    if kind == "muller":
        acc = frozenset(_map_bits(b, colours) for b in data)
    elif kind == "parity":
        acc = [None] * len(data)
        for o, p in enumerate(colours):
            acc[p] = data[o]
    elif kind == "rabin":
        acc = [(_map_bits(e, colours), _map_bits(f, colours)) for e, f in data]
    else:
        acc = [_map_bits(s, colours) for s in data]
    return {"n": aut["n"], "initial": states[aut["initial"]], "inputs": inputs,
            "outputs": outputs, "delta": delta, "acc": (kind, acc)}


def random_lasso(rng: random.Random, n_in: int):
    prefix = [rng.randrange(n_in) for _ in range(rng.randrange(4))]
    period = [rng.randrange(n_in) for _ in range(rng.randrange(1, 6))]
    return prefix, period


def relabel_graph(rng, n, edges):
    perm = _perm(rng, n)
    out = sorted(tuple(sorted((perm[u - 1] + 1, perm[v - 1] + 1))) for u, v in edges)
    rng.shuffle(out)
    return out


def cycle_graph(n):
    return [(i, i % n + 1) for i in range(1, n + 1)]


# χ ≤ 3 shapes with five or six vertices
GRAPH_SHAPES = {
    "c5": (5, cycle_graph(5)),
    "c6": (6, cycle_graph(6)),
    "prism": (6, cycle_graph(3) + [(4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]),
    "octahedron": (6, [(u, v) for u in range(1, 7) for v in range(u + 1, 7)
                       if v - u != 3]),
    "k33": (6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)]),
    "fan5": (5, [(1, v) for v in range(2, 6)] + [(2, 3), (3, 4), (4, 5)]),
}
K4 = (4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])


def random_arena(rng, n_vertices, n_colours) -> dict:
    eve = [rng.random() < 0.5 for _ in range(n_vertices)]
    edges = [(v, rng.randrange(n_vertices), rng.randrange(n_colours))
             for v in range(n_vertices) for _ in range(rng.randrange(1, 4))]
    return {"colours": list(LETTERS[:n_colours]), "eve": eve, "initial": 0,
            "edges": edges}


def ring_arena(rng, n_vertices, n_colours) -> dict:
    """One strongly connected arena: a ring carrying every colour, chords
    out of the opponent's vertices, and a self-loop of colour 0 at vertex 0.
    The colour player's vertices only have their ring edge."""
    ring_colours = list(range(n_colours)) + [
        rng.randrange(n_colours) for _ in range(n_vertices - n_colours)]
    rng.shuffle(ring_colours)
    eve = [v % 3 == 1 for v in range(n_vertices)]
    edges = [(v, (v + 1) % n_vertices, ring_colours[v])
             for v in range(n_vertices)]
    edges.append((0, 0, 0))
    for v in range(n_vertices):
        if not eve[v] and rng.random() < 0.5:
            edges.append((v, rng.randrange(n_vertices), rng.randrange(n_colours)))
    return {"colours": list(LETTERS[:n_colours]), "eve": eve, "initial": 0,
            "edges": edges}


def relabel_game(rng, arena: dict, family):
    """Isomorphic game: vertices and colours permuted, edges reordered."""
    n, g = len(arena["eve"]), len(arena["colours"])
    vs, cs = _perm(rng, n), _perm(rng, g)
    eve = [None] * n
    for v in range(n):
        eve[vs[v]] = arena["eve"][v]
    edges = [(vs[s], vs[t], cs[c]) for s, t, c in arena["edges"]]
    rng.shuffle(edges)
    return ({"colours": arena["colours"], "eve": eve, "initial": vs[arena["initial"]],
             "edges": edges},
            frozenset(_map_bits(b, cs) for b in family))


# the separation game of the source paper (gen example22): the opponent picks
# one of three two-loop gadgets, the colour player must alternate its colours
SEPARATION = {"colours": ["a", "b", "c"], "eve": [False] + [True] * 9, "initial": 0,
              "edges": [(0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 4, 0), (1, 5, 1),
                        (2, 6, 1), (2, 7, 2), (3, 8, 0), (3, 9, 2), (4, 1, 0),
                        (5, 1, 1), (6, 2, 1), (7, 2, 2), (8, 3, 0), (9, 3, 2)]}


def exactly_two(n):
    return frozenset(b for b in range(1, 1 << n) if b.bit_count() == 2)


def at_least_two(n):
    return frozenset(b for b in range(1, 1 << n) if b.bit_count() >= 2)


def a_then_b() -> dict:
    """'Infinitely often a immediately followed by b' over {a, b, c}: the
    state remembers whether the last letter was a, and the step a->b emits x.
    Not a condition on the letters seen infinitely often, so neither
    minimiser applies to it."""
    delta = [[(1, 1), (0, 1), (0, 1)], [(1, 1), (0, 0), (0, 1)]]
    return {"n": 2, "initial": 0, "inputs": ["a", "b", "c"], "outputs": ["x", "y"],
            "delta": delta, "acc": ("genbuchi", [1])}


# ---------------------------------------------------------------------------
# Workloads.  A case is {"id", "argv", "check", "expect"}; argv names files
# relative to the input directory, and "check" selects the rule in checks.py.

class _Collector:
    """The files and cases of one pass, filled by a workload's generator."""

    def __init__(self):
        self.files: dict[str, str] = {}
        self.cases: list[dict] = []

    def add(self, name: str, text: str) -> str:
        self.files[name] = text
        return name

    def case(self, case_id, argv, check, **expect):
        self.cases.append({"id": case_id, "argv": argv + ["--threads", "1"],
                           "check": check, "expect": expect})


def _chromatic_memory(seed: int, b: _Collector) -> None:
    wl = "chromatic-memory"
    b.case("memchrom-clique4",
           ["memchrom", b.add("clique4.json", condition_text("1234", exactly_two(4))),
            "--max-size", "4"], "memchrom", size=4)
    b.case("memchrom-min2-4",
           ["memchrom", b.add("min2-4.json", condition_text("1234", at_least_two(4))),
            "--max-size", "4"], "memchrom", size=4)
    b.case("reduce-k4",
           ["reduce-demo", b.add("k4.col", dimacs_text(*K4)), "--max-size", "4"],
           "reduce", chromatic=4)
    shapes = list(GRAPH_SHAPES.items())
    pool = _pool(wl, "graphs")
    while len(shapes) < 12:
        n = pool.choice((5, 6))
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if pool.random() < 0.45]
        if edges and brute_chromatic(n, edges) <= 3:
            shapes.append((f"random{len(shapes) - len(GRAPH_SHAPES)}", (n, edges)))
    rng = _seeded(wl, seed, "graphs")
    for name, (n, edges) in shapes:
        # the search order, and so the cost, depends on the vertex names;
        # several relabellings per graph keep the seed's draw from moving
        # the median and tail commands
        for copy in range(4 if name in GRAPH_SHAPES else 2):
            relabelled = relabel_graph(rng, n, edges)
            b.case(f"reduce-{name}-{copy}",
                   ["reduce-demo", b.add(f"{name}-{copy}.col", dimacs_text(n, relabelled)),
                    "--max-size", "3"], "reduce",
                   chromatic=brute_chromatic(n, relabelled))
    pool = _pool(wl, "conditions")
    rng = _seeded(wl, seed, "conditions")
    for i in range(4):
        # a tree with at most three leaves bounds the answer by three (its
        # parity automaton is a typeable structure), so the search ends early
        family = random_family(pool, 4)
        while leaf_count(zielonka(4, family)) > 3:
            family = random_family(pool, 4)
        # the same condition under two letter orders must get one answer
        for tag in "ab":
            perm = _perm(rng, 4)
            moved = frozenset(_map_bits(bits, perm) for bits in family)
            b.case(f"memchrom-random-{i}{tag}",
                   ["memchrom", b.add(f"cond-{i}{tag}.json", condition_text("wxyz", moved)),
                    "--max-size", "3"], "memchrom", size=None, twin=f"memchrom-random-{i}",
                   at_most=leaf_count(zielonka(4, family)))


def _muller_games(seed: int, b: _Collector) -> None:
    wl = "muller-games"
    pool = _pool(wl, "solve")
    rng = _seeded(wl, seed, "solve")
    # product edges (arena edges times tree leaves) per colour count; the
    # band keeps each instance's size, and so its cost, within a factor 1.5.
    # Most are mid-sized, so the median command sits inside one cluster.
    bands = [(6, 4000, 6000)] * 3 + [(7, 18000, 27000)] * 6 + [(8, 60000, 90000)] * 3
    for i, (n_colours, low, high) in enumerate(bands):
        while True:
            arena = random_arena(pool, pool.randrange(40, 61), n_colours)
            family = random_family(pool, n_colours)
            size = len(arena["edges"]) * leaf_count(zielonka(n_colours, family))
            if low <= size <= high:
                break
        arena, family = relabel_game(rng, arena, family)
        b.case(f"solve-{i}", ["solve", b.add(f"game-{i}.json", game_text(arena, family))],
               "solve")
    pool = _pool(wl, "verify")
    # time doubles per colour; 13 colours gets the winning verdict only,
    # which keeps a pass near ten seconds
    for n_colours in (10, 11, 12, 13):
        full = (1 << n_colours) - 1
        arena = ring_arena(pool, 60, n_colours)
        # every cycle wins, or every cycle but the colour-0 self-loop
        verdicts = (("win", range(1, full + 1), True),
                    ("lose", range(2, full + 1), False))
        for tag, family, verdict in verdicts[:1 if n_colours == 13 else 2]:
            game, moved = relabel_game(rng, arena, frozenset(family))
            name = f"ring{n_colours}-{tag}"
            b.case(f"verify-{name}",
                   ["verify", b.add(f"{name}.json", game_text(game, moved)),
                    b.add(f"{name}-strategy.json", strategy_text(game))],
                   "verify", verified=verdict)
    b.case("memgame-example22",
           ["memgame", b.add("example22.json", game_text(SEPARATION, exactly_two(3))),
            "--max-size", "3"], "memgame", size=3)


def _automata_check(seed: int, b: _Collector) -> None:
    wl = "automata-check"
    pool = _pool(wl, "rabincheck")
    rng = _seeded(wl, seed, "rabincheck")
    for i in range(9):
        n_out = 12 + i % 3
        aut = random_automaton(pool, 20, 3, n_out, ("muller", random_family(pool, n_out)))
        b.case(f"rabincheck-big-{i}",
               ["rabincheck", b.add(f"big-{i}.json",
                                    automaton_text(relabel_automaton(aut, rng)))],
               "rabincheck")
    for i in range(6):
        prio = [pool.randrange(4) for _ in range(4)]
        family = frozenset(x for x in range(1, 16) if accepts(("parity", prio), x))
        aut = relabel_automaton(random_automaton(pool, 4, 3, 4, ("muller", family)), rng)
        b.case(f"rabincheck-small-{i}",
               ["rabincheck", b.add(f"small-{i}.json", automaton_text(aut))],
               "rabincheck", words=[random_lasso(rng, 3) for _ in range(40)])
    pool = _pool(wl, "equiv")
    for i in range(4):
        base = random_automaton(pool, 14, 2, 11, ("muller", random_family(pool, 11)))
        _equiv_pair(pool, rng, b, f"muller-{i}", base, "muller")
    for i in range(4):
        pairs = []
        for _ in range(3):
            meet = pool.randrange(1, 1 << 8)
            pairs.append((meet, pool.randrange(1 << 8) & ~meet))
        base = random_automaton(pool, 12, 3, 8, ("rabin", pairs))
        _equiv_pair(pool, rng, b, f"rabin-{i}", base, "rabin")
    pool = _pool(wl, "minparity")
    for i in range(4):
        n_colours = 6 + i % 2
        family = random_family(pool, n_colours)
        aut = inflate(tree_parity_automaton(n_colours, family), pool, 2)
        aut = relabel_automaton(aut, rng)
        b.case(f"minparity-{i}",
               ["minparity", b.add(f"parity-{i}.json", automaton_text(aut))],
               "minparity", states=leaf_count(zielonka(n_colours, family)),
               words=[random_lasso(rng, n_colours) for _ in range(40)])
    pool = _pool(wl, "minbuchi")
    for i in range(4):
        n_in = 4 + i % 2
        sets = [pool.randrange(1, 1 << n_in) for _ in range(pool.randrange(2, 5))]
        aut = random_automaton(pool, 16, n_in, n_in, ("genbuchi", sets))
        # outputs echo inputs, so the language is a condition on the letters
        aut["delta"] = [[(t, a) for a, (t, _) in enumerate(row)] for row in aut["delta"]]
        aut["outputs"] = list(aut["inputs"])
        letters = _perm(rng, n_in)
        aut = relabel_automaton(aut, rng, letters, letters)
        b.case(f"minbuchi-{i}",
               ["minbuchi", b.add(f"genbuchi-{i}.json", automaton_text(aut))],
               "minbuchi", sets=aut["acc"][1], letters=aut["inputs"])
    defect = a_then_b()
    b.case("defect-minbuchi",
           ["minbuchi", b.add("a-then-b-genbuchi.json", automaton_text(defect))],
           "refusal", defect=True)
    b.case("defect-minparity",
           ["minparity", b.add("a-then-b-parity.json",
                               automaton_text(dict(defect, acc=("parity", [2, 1]))))],
           "refusal", defect=True)


def _equiv_pair(pool, rng, b: _Collector, tag: str, base: dict, method: str) -> None:
    """One pair equivalent by construction, one that differs on a lasso."""
    prefix, period = random_lasso(pool, len(base["inputs"]))
    seen = lasso_colours(base, prefix, period)
    kind, data = base["acc"]
    if kind == "muller":
        changed = ("muller", data ^ {seen})
    elif accepts(base["acc"], seen):
        # reject the lasso by dropping every pair that accepts it
        changed = ("rabin", [p for p in data if not (seen & p[0] and not seen & p[1])])
    else:
        # accept it by one more pair
        changed = ("rabin", data + [(seen, ((1 << len(base["outputs"])) - 1) & ~seen)])
    same = inflate(base, pool, 2)
    other = dict(inflate(base, pool, 2), acc=changed)
    letters = _perm(rng, len(base["inputs"]))
    colours = _perm(rng, len(base["outputs"]))
    texts = [automaton_text(relabel_automaton(a, rng, letters, colours))
             for a in (base, same, other)]
    left = b.add(f"{tag}-left.json", texts[0])
    b.case(f"equiv-{tag}-same", ["equiv", left, b.add(f"{tag}-same.json", texts[1])],
           "equiv", equivalent=True, method=method)
    b.case(f"equiv-{tag}-other", ["equiv", left, b.add(f"{tag}-other.json", texts[2])],
           "equiv", equivalent=False, method=method)


GENERATORS = {"chromatic-memory": _chromatic_memory,
            "muller-games": _muller_games,
            "automata-check": _automata_check}


def build(workload: str, seed: int) -> tuple[dict[str, str], list[dict]]:
    b = _Collector()
    GENERATORS[workload](seed, b)
    return b.files, b.cases
