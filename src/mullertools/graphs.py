"""Simple undirected graphs, exact colouring, and the two-way translation
between proper colourings and Rabin-expressible edge-alternation languages."""
from __future__ import annotations

from dataclasses import dataclass, replace

from .core import (Alphabet, Automaton, MalformedInput, MullerCondition,
                   PropertyViolation, RabinAcceptance, ScaleGuard, is_integer,
                   transition_alphabet)
from .zielonka import zielonka_tree  # unused here; perfbench wraps it by this name

MAX_VERTICES = 64
# most vertex colourings the colouring search may try: a random 50-vertex
# graph of edge density 1/2 needs about 5,000, while a 64-vertex one gave no
# answer in 40 s (about 7,500 colourings a second on one core)
MAX_COLOURING_NODES = 20000


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph without loops or parallel edges; vertices are 1..n."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n_vertices <= MAX_VERTICES:
            raise MalformedInput(
                f"vertex count must be between 1 and {MAX_VERTICES}")
        seen = set()
        for u, v in self.edges:
            if not (1 <= u <= self.n_vertices and 1 <= v <= self.n_vertices):
                raise MalformedInput(f"edge ({u},{v}) leaves the vertex range")
            if u == v:
                raise MalformedInput(f"loop at vertex {u} is not allowed")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise MalformedInput(f"duplicate edge ({u},{v})")
            seen.add(key)

    def normalised_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((min(u, v), max(u, v)) for u, v in self.edges))


def parse_dimacs(text: str) -> SimpleGraph:
    """Parse the classic edge-list graph format.

    Accepted lines: comments starting with 'c', exactly one 'p edge <n> <m>'
    header, and 'e <u> <v>' lines with 1-indexed endpoints.  Loops, repeated
    edges (in either orientation) and a mismatched edge count are rejected.
    """
    n = None
    declared = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise MalformedInput(f"line {lineno}: second problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise MalformedInput(f"line {lineno}: problem line must be"
                                     " 'p edge <vertices> <edges>'")
            try:
                n, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise MalformedInput(f"line {lineno}: malformed counts") from None
        elif parts[0] == "e":
            if n is None:
                raise MalformedInput(f"line {lineno}: edge before the problem line")
            if len(parts) != 3:
                raise MalformedInput(f"line {lineno}: edge line must be 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise MalformedInput(f"line {lineno}: malformed endpoints") from None
            edges.append((u, v))
        else:
            raise MalformedInput(f"line {lineno}: unknown line type {parts[0]!r}")
    if n is None:
        raise MalformedInput("missing problem line")
    if declared != len(edges):
        raise MalformedInput(
            f"problem line declares {declared} edges, file lists {len(edges)}")
    return SimpleGraph(n, tuple(edges))


def graph_to_dimacs(graph: SimpleGraph) -> str:
    lines = [f"p edge {graph.n_vertices} {len(graph.edges)}"]
    lines.extend(f"e {u} {v}" for u, v in graph.normalised_edges())
    return "\n".join(lines) + "\n"


def _greedy_clique(adj: list[set[int]]) -> int:
    """Size of a clique found greedily by descending degree; a lower bound."""
    order = sorted(range(1, len(adj)), key=lambda v: (-len(adj[v]), v))
    best = 1
    for start in order:
        clique = [start]
        for v in order:
            if v != start and all(v in adj[u] for u in clique):
                clique.append(v)
        best = max(best, len(clique))
    return best


def chromatic_number(graph: SimpleGraph) -> tuple[int, dict[int, int]]:
    """Exact chromatic number with a witnessing proper colouring.

    One DSATUR branch and bound (Brelaz 1979): each node colours the most
    saturated uncoloured vertex (ties by degree, then the smaller vertex)
    with colours 1..used+1 that beat the incumbent, so colour permutations
    are never revisited.  The first leaf is the greedy DSATUR colouring.
    A node that already uses as many colours as the incumbent is cut, and
    the search stops as soon as the incumbent meets a greedy clique.  A
    search that colours a vertex more than MAX_COLOURING_NODES times raises
    ScaleGuard.
    """
    n = graph.n_vertices
    adj: list[set[int]] = [set() for _ in range(n + 1)]
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    lower = _greedy_clique(adj)
    colour = [0] * (n + 1)
    best, witness = n + 1, {}
    nodes = 0
    # one frame per coloured vertex: [vertex, colours used before it,
    # colours its neighbours held then, its current colour]
    path: list[list] = []
    while True:
        if len(path) == n:
            best = max(colour)
            witness = {v: colour[v] for v in range(1, n + 1)}
            if best == lower:
                break
        else:
            v = max((u for u in range(1, n + 1) if not colour[u]),
                    key=lambda u: (len({colour[w] for w in adj[u]} - {0}),
                                   len(adj[u]), -u))
            used = max(colour)
            path.append([v, used, {colour[w] for w in adj[v]}, 0])
        # advance the deepest frame that still has a colour to try
        while path:
            frame = path[-1]
            v, used, taken, c = frame
            c += 1
            while c in taken:
                c += 1
            if c <= used + 1 and max(used, c) < best:
                frame[3] = colour[v] = c
                nodes += 1
                if nodes > MAX_COLOURING_NODES:
                    raise ScaleGuard(f"colouring search explored {nodes} nodes,"
                                     f" limit {MAX_COLOURING_NODES}")
                break
            colour[v] = 0
            path.pop()
        else:
            break
    return best, witness


def vertex_alphabet(graph: SimpleGraph) -> Alphabet:
    return Alphabet(tuple(str(v) for v in range(1, graph.n_vertices + 1)))


def graph_edge_condition(graph: SimpleGraph) -> MullerCondition:
    """Muller condition over the vertex names whose accepting sets are
    exactly the endpoint pairs of the graph's edges."""
    return MullerCondition.make(vertex_alphabet(graph),
                                ((str(u), str(v)) for u, v in graph.normalised_edges()))


def edge_alternation_automaton(graph: SimpleGraph) -> Automaton:
    """Rabin automaton whose accepted words eventually alternate blocks of
    the two endpoints of one edge.

    It is the automaton of the discrete colouring, one state per vertex (the
    last letter read), with the output "q:x" naming the state by its vertex.
    """
    n = graph.n_vertices
    aut = colouring_to_rabin(graph, {v: v for v in range(1, n + 1)})
    renamed = transition_alphabet(range(1, n + 1), aut.input_alphabet)
    return replace(aut, output_alphabet=renamed)


def _parse_colouring(graph: SimpleGraph, colouring: dict[int, int]) -> list[int]:
    values = []
    for v in range(1, graph.n_vertices + 1):
        if v not in colouring:
            raise MalformedInput(f"vertex {v} has no colour")
        c = colouring[v]
        if not is_integer(c) or c < 1:
            raise MalformedInput(f"colour of vertex {v} must be a positive integer")
        values.append(c)
    for u, v in graph.edges:
        if values[u - 1] == values[v - 1]:
            raise PropertyViolation(
                f"colouring is not proper: edge ({u},{v}) is monochromatic")
    return values


def colouring_to_rabin(graph: SimpleGraph, colouring: dict[int, int]) -> Automaton:
    """Rabin automaton for the edge-alternation language with one state per
    colour class of a proper colouring.

    The state tracks the colour of the last letter read and transitions
    output "state:letter".  Each edge contributes a pair that asks for both
    crossing transitions territory: see one of the two class-to-other-endpoint
    steps infinitely often while staying on the four steps between the two
    endpoints' classes and the endpoints themselves.
    """
    values = _parse_colouring(graph, colouring)
    classes = sorted(set(values))
    class_index = {c: i for i, c in enumerate(classes)}
    k = len(classes)
    n = graph.n_vertices
    alphabet = vertex_alphabet(graph)
    out = transition_alphabet(range(k), alphabet)

    def colour_position(q: int, x: int) -> int:
        return q * n + (x - 1)

    rows = tuple(tuple((class_index[values[x]], colour_position(q, x + 1))
                       for x in range(n))
                 for q in range(k))
    pairs = []
    for u, v in graph.normalised_edges():
        cu = class_index[values[u - 1]]
        cv = class_index[values[v - 1]]
        meet = 1 << colour_position(cv, u)
        keep = ((1 << colour_position(cv, u)) | (1 << colour_position(cu, v))
                | (1 << colour_position(cv, v)) | (1 << colour_position(cu, u)))
        pairs.append((meet, out.full_mask & ~keep))
    return Automaton(k, 0, alphabet, out, rows, RabinAcceptance(tuple(pairs)))


def rabin_to_colouring(aut: Automaton, graph: SimpleGraph) -> dict[int, int]:
    """Read a proper colouring off any deterministic automaton recognising
    the graph's edge-alternation language.

    For each vertex letter, repeating that letter forever drives the
    automaton into the cycles of a functional graph; the smallest state on
    those cycles names the vertex's colour class.  After as many steps as
    there are states, the states reached from all starts are exactly the
    cycle states.  If two adjacent vertices land in the same class the
    automaton cannot recognise the language, which is reported as a
    violation.
    """
    if set(aut.input_alphabet.symbols) != set(vertex_alphabet(graph).symbols):
        raise MalformedInput("automaton input alphabet does not match the graph")
    chosen: dict[int, int] = {}
    for v in range(1, graph.n_vertices + 1):
        a = aut.input_alphabet.position(str(v))
        states = range(aut.n_states)
        for _ in range(aut.n_states):
            states = [aut.delta[state][a][0] for state in states]
        chosen[v] = min(states)
    for u, v in graph.edges:
        if chosen[u] == chosen[v]:
            raise PropertyViolation(
                "automaton does not recognise the edge-alternation language"
                f" of this graph: vertices {u} and {v} share a class")
    palette: dict[int, int] = {}  # class representative -> colour, by first vertex
    return {v: palette.setdefault(rep, len(palette) + 1) for v, rep in chosen.items()}


def colouring_to_json(colouring: dict[int, int]) -> dict:
    size = max(colouring.values()) if colouring else 0
    return {"size": size,
            "assignment": [colouring[v] for v in sorted(colouring)]}


def colouring_from_json(data: object, graph: SimpleGraph) -> dict[int, int]:
    if not isinstance(data, dict) or "assignment" not in data:
        raise MalformedInput("colouring must be an object with an 'assignment' list")
    assignment = data["assignment"]
    if not isinstance(assignment, list) or len(assignment) != graph.n_vertices:
        raise MalformedInput("assignment must list one colour per vertex")
    out = {}
    for i, c in enumerate(assignment, start=1):
        if not is_integer(c) or c < 1:
            raise MalformedInput(f"colour of vertex {i} must be a positive integer")
        out[i] = c
    return out
