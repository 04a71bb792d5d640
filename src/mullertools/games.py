"""Turn-based games on coloured arenas: the parity reduction, strategy
synthesis and verification, and searches for small memory structures."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

# strongly_connected_components only stays importable for perfbench/spans.py
from .core import (Alphabet, Automaton, MalformedInput, MullerCondition,
                   PreconditionViolation, PropertyViolation, ScaleGuard,
                   alternating_children, bit_indices, condition_from_json,
                   condition_to_json, cycles_through, is_integer,
                   strongly_connected_components, subcycles)
from .rabin import MAX_TABLE_CELLS, _typeable_tables, canonical_structures
from .zielonka import MAX_TREE_LETTERS, check_tree_alphabet, parity_automaton

# most (vertex, memory state) configurations verify_strategy may reach
MAX_CONFIGS = 20000


def _out_lists(kind: str, eve, initial: int, edges, label_ok, fault: str
               ) -> tuple[tuple[int, ...], ...]:
    """Out-edge ids of each vertex of a game graph, checked: it has a
    vertex, the initial vertex and edge endpoints are vertices, label_ok
    holds of each edge label (else the edge's fault is named) and no vertex
    is a dead end."""
    n = len(eve)
    if n == 0:
        raise MalformedInput(f"{kind} needs at least one vertex")
    if not 0 <= initial < n:
        raise MalformedInput("initial vertex out of range")
    out: list[list[int]] = [[] for _ in range(n)]
    for e, (src, dst, label) in enumerate(edges):
        if not (0 <= src < n and 0 <= dst < n):
            raise MalformedInput(f"edge {e} endpoint out of range")
        if not label_ok(label):
            raise MalformedInput(f"edge {e} {fault}")
        out[src].append(e)
    for v in range(n):
        if not out[v]:
            raise MalformedInput(f"vertex {v} has no outgoing edge")
    return tuple(tuple(lst) for lst in out)


@dataclass(frozen=True)
class Arena:
    """Finite arena with vertex owners and optionally-coloured edges.

    Edges are (source, target, colour position or None) triples; an edge with
    colour None is silent.  Every vertex needs at least one outgoing edge and
    cycles of silent edges only are rejected, so every infinite play produces
    infinitely many colours.  Edge ids are positions in the edge tuple.
    """

    colours: Alphabet
    eve: tuple[bool, ...]
    initial: int
    edges: tuple[tuple[int, int, Optional[int]], ...]

    def __post_init__(self) -> None:
        g = len(self.colours)
        out = _out_lists("arena", self.eve, self.initial, self.edges,
                         lambda c: c is None or 0 <= c < g, "colour out of range")
        silent = [(src, dst, 0) for src, dst, colour in self.edges if colour is None]
        if any(subcycles(silent, -1)):
            raise MalformedInput("arena has a cycle of silent edges only")
        object.__setattr__(self, "_out", out)

    @property
    def n_vertices(self) -> int:
        return len(self.eve)

    def out_edges(self, v: int) -> tuple[int, ...]:
        return self._out[v]  # type: ignore[attr-defined]

    @property
    def epsilon_free(self) -> bool:
        return all(colour is not None for _, _, colour in self.edges)


@dataclass(frozen=True)
class MemoryStructure:
    """Deterministic memory: 'general' reads edge ids, 'chromatic' reads
    colours only and stands still on silent edges."""

    kind: str
    size: int
    initial: int
    update: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("general", "chromatic"):
            raise MalformedInput("memory kind must be 'general' or 'chromatic'")
        if self.size < 1:
            raise MalformedInput("memory needs at least one state")
        if not 0 <= self.initial < self.size:
            raise MalformedInput("initial memory state out of range")
        if len(self.update) != self.size:
            raise MalformedInput("memory update needs one row per state")
        for row in self.update:
            for m in row:
                if not 0 <= m < self.size:
                    raise MalformedInput("memory update target out of range")

    def width_matches(self, arena: Arena) -> bool:
        wanted = len(arena.edges) if self.kind == "general" else len(arena.colours)
        return all(len(row) == wanted for row in self.update)

    def step(self, mstate: int, edge_id: int, colour: Optional[int]) -> int:
        if self.kind == "general":
            return self.update[mstate][edge_id]
        if colour is None:
            return mstate
        return self.update[mstate][colour]


@dataclass(frozen=True)
class StrategyTable:
    """Positional-in-(vertex, memory) choices for the colour player."""

    moves: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        lookup = {}
        for vertex, mstate, edge in self.moves:
            if (vertex, mstate) in lookup:
                raise MalformedInput(
                    f"duplicate strategy entry for vertex {vertex}, memory {mstate}")
            lookup[(vertex, mstate)] = edge
        object.__setattr__(self, "_lookup", lookup)

    @classmethod
    def from_dict(cls, moves: dict[tuple[int, int], int]) -> "StrategyTable":
        return cls(tuple(sorted((v, m, e) for (v, m), e in moves.items())))

    def move(self, vertex: int, mstate: int) -> int:
        try:
            return self._lookup[(vertex, mstate)]  # type: ignore[attr-defined]
        except KeyError:
            raise MalformedInput(
                f"strategy has no move for vertex {vertex}, memory {mstate}") from None


# ---------------------------------------------------------------------------
# Parity games with priorities on edges (max-even convention).

@dataclass(frozen=True)
class ParityGame:
    eve: tuple[bool, ...]
    initial: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_out", _out_lists(
            "parity game", self.eve, self.initial, self.edges,
            lambda p: p >= 0, "has a negative priority"))

    def out_edges(self, v: int) -> tuple[int, ...]:
        return self._out[v]  # type: ignore[attr-defined]


@dataclass(frozen=True)
class ParitySolution:
    """Winning regions and positional strategies, per vertex."""

    eve_region: frozenset[int]
    adam_region: frozenset[int]
    eve_strategy: dict[int, int]
    adam_strategy: dict[int, int]


def _zielonka(eve, out, src, dst, colours, root, accepts, children):
    """Winning regions and choices of Zielonka's decomposition guided by a
    tree of colour labels (Zielonka 1998; McNaughton 1993), on a work stack,
    so deep trees do not meet Python's recursion limit.

    Each edge carries one colour bit, 0 when silent; no cycle is silent.
    The tree is given by its root label, accepts(label) and children(label);
    a leaf counts as having the single child 0.  A subgame is a vertex set
    with a label, holding the edges between its vertices coloured within
    it.  It moves down to the deepest node whose label holds its colours,
    probing only the edges coloured in label ^ child (kids).  Child by
    child, the node's player (the colour player when it accepts) attracts
    to the edges coloured outside the child; the rest is solved under the
    child.  What the opponent wins there, with the opponent's attractor to
    it, is theirs, and the subgame is solved again without it; once no
    child leaves the opponent anything, the node's player wins it all.

    Returns ([eve region, adam region], [eve choices, adam choices]).  A
    player's choices are a winning positional strategy on their region
    when each node of that player has at most one child."""
    owner = [0 if mine else 1 for mine in eve]
    bucket: list[list[int]] = [[] for _ in range(root.bit_length() + 1)]  # by colour bit length
    into: list[list[int]] = [[] for _ in owner]
    for e, colour in enumerate(colours):
        bucket[colour.bit_length()].append(e)
        into[dst[e]].append(e)

    apart: dict[int, list[tuple[int, list[int]]]] = {}  # label -> kids(label)

    def kids(label: int) -> list[tuple[int, list[int]]]:
        """The label's children, each with the edges coloured in label ^ child,
        kept in apart, which the descent reads without a call."""
        apart[label] = [(child, [e for c in bit_indices(label ^ child) for e in bucket[c + 1]])
                        for child in children(label) or (0,)]
        return apart[label]

    def attract(player: int, rest: set[int], attr: set[int], label: int,
                seeds: list[int], below: int) -> dict[int, int]:
        """Grow attr, inside the subgame on rest | attr with the label, by
        the player's attractor: each seed edge in turn, then the edges
        coloured within below into each vertex as it joins.  Every edge
        counts once towards its source, so no seed may be coloured within
        below.  Returns the edge chosen by each vertex of the player that
        joins."""
        choice: dict[int, int] = {}
        left: dict[int, int] = {}  # subgame edges of an opponent vertex not yet counted
        joined: list[int] = []
        behind = (e for w in joined for e in into[w] if colours[e] & below == colours[e])
        for e in chain(seeds, behind):  # joined grows while behind reads it
            u = src[e]
            if u not in rest or u in attr:
                continue
            if owner[u] == player:
                choice[u] = e
            else:
                if u not in left:
                    left[u] = sum(1 for f in out[u] if colours[f] & label == colours[f]
                                  and (dst[f] in rest or dst[f] in attr))
                left[u] -= 1
                if left[u]:
                    continue
            attr.add(u)
            joined.append(u)
        return choice

    # ("solve", vertices, label) leaves ([eve region, adam region], [eve
    # choices, adam choices]) in result; "split" resumes it after child i's
    # subgame and "join" after the rest's, and both may reuse result.  A
    # solve, and a split moving to the next child, end by trying child i.
    work: list[tuple] = [("solve", set(range(len(owner))), root)]
    while work:
        item = work.pop()
        if item[0] == "solve":
            _, vertices, label = item
            if not vertices:
                result = ([vertices, set()], [{}, {}])
                continue
            seeds: list[int] = []
            while not seeds:  # down to the deepest node holding the subgame's colours
                for child, edges in (nodes := apart.get(label) or kids(label)):
                    found = [e for e in edges if src[e] in vertices and dst[e] in vertices]
                    if not found:
                        label, seeds = child, []
                        break
                    seeds = seeds or found  # the first child's, tried first
            i, j = 0, 0 if accepts(label) else 1
        elif item[0] == "split":
            _, label, nodes, i, j, attr, choice = item
            regions, choices = result
            vertices, opponent = regions[j], regions[1 - j]
            vertices |= attr
            if opponent:
                # the opponent's attractor to its part, seeded with the edges
                # into it coloured within the child by id, then the others by
                # target: the order on the game with each edge subdivided
                # through a node, which fixes the choices
                child, edges = nodes[i]
                lower = sorted(e for u in vertices for e in out[u]
                               if dst[e] in opponent and colours[e] & child == colours[e])
                upper = sorted((e for e in edges if src[e] in vertices and dst[e] in opponent),
                               key=lambda e: (dst[e], e))
                choices[1 - j].update(attract(1 - j, vertices, opponent, label,
                                              lower + upper, label))
                vertices -= opponent
                work.append(("join", j, opponent, choices[1 - j]))
                work.append(("solve", vertices, label))
                continue
            if i + 1 == len(nodes):
                choices[j].update(choice)
                continue
            i += 1
            seeds = [e for e in nodes[i][1] if src[e] in vertices and dst[e] in vertices]
        else:
            _, j, block, theirs = item
            regions, choices = result
            block |= regions[1 - j]
            theirs.update(choices[1 - j])
            regions[1 - j], choices[1 - j] = block, theirs
            continue
        attr = set()
        choice = attract(j, vertices, attr, label, seeds, nodes[i][0])
        vertices -= attr
        work.append(("split", label, nodes, i, j, attr, choice))
        work.append(("solve", vertices, nodes[i][0]))
    return result


def solve_parity_game(game: ParityGame) -> ParitySolution:
    """Winning regions and positional strategies of an edge-priority game.

    The Zielonka solver on the game's own vertices, guided by the rank
    chain: each priority is one colour bit, by rank, a label's single child
    drops its top priority, and a label accepts when its top priority is
    even."""
    src, dst, priority = zip(*game.edges)
    used = sorted(set(priority))
    rank = {p: r for r, p in enumerate(used)}
    regions, choices = _zielonka(
        game.eve, [game.out_edges(v) for v in range(len(game.eve))], src, dst,
        [1 << rank[p] for p in priority], (1 << len(used)) - 1,
        lambda label: used[label.bit_length() - 1] % 2 == 0,
        lambda label: (label >> 1,))
    return ParitySolution(frozenset(regions[0]), frozenset(regions[1]), *choices)


# ---------------------------------------------------------------------------
# Product of an arena with a deterministic parity automaton over its colours.

@dataclass(frozen=True)
class ParityProduct:
    game: ParityGame
    index: dict[tuple[int, int], int]  # (arena vertex, automaton state) -> vertex
    edge_origin: tuple[int, ...]  # product edge -> arena edge id

    def vertex(self, arena_vertex: int, automaton_state: int) -> Optional[int]:
        """Product vertex of a pair, or None when the pair was not built."""
        return self.index.get((arena_vertex, automaton_state))


def product_with_parity(arena: Arena, aut: Automaton,
                        region: Optional[frozenset[int]] = None) -> ParityProduct:
    """Expand an arena with the state of a parity automaton reading the
    produced colours; silent edges keep the state and carry the automaton's
    minimum priority, which never decides a cycle.

    The arena's colours must all appear in the automaton's input alphabet.
    The region, every arena vertex when it is missing, must hold the
    initial vertex.  The product holds only the pairs reachable from
    (v, initial state) for some v in the region, numbered breadth first
    from those seeds in vertex order, and every arena edge leaving the
    region is left out, so it is the product of the subarena on the region.
    It is closed under successors, so winning regions read off it are those
    of that subarena's full product, and every region vertex can be read
    at the automaton's initial state.  Each vertex of the region needs an
    edge staying in it, as in the colour player's winning region: the
    opponent's vertices keep all their edges there, and hers keep at least
    one.
    """
    if aut.acceptance.kind != "parity":
        raise PreconditionViolation("product needs a parity automaton")
    remap = [aut.input_alphabet.position(sym) for sym in arena.colours.symbols]
    priorities = aut.acceptance.priorities
    neutral = min(priorities)
    region = frozenset(range(arena.n_vertices)) if region is None else region
    if arena.initial not in region:
        raise PreconditionViolation(f"region lacks the initial vertex {arena.initial}")
    pairs = [(v, aut.initial) for v in sorted(region)]
    index = {pair: i for i, pair in enumerate(pairs)}
    edges: list[tuple[int, int, int]] = []
    origin: list[int] = []
    for src, (v, q) in enumerate(pairs):  # pairs grows as new ones are found
        for e in arena.out_edges(v):
            _, dst, colour = arena.edges[e]
            if dst not in region:
                continue
            if colour is None:
                q2, priority = q, neutral
            else:
                q2, out_colour = aut.delta[q][remap[colour]]
                priority = priorities[out_colour]
            key = (dst, q2)
            if key not in index:
                index[key] = len(pairs)
                pairs.append(key)
            edges.append((src, index[key], priority))
            origin.append(e)
    eve = tuple(arena.eve[v] for v, _ in pairs)
    game = ParityGame(eve, index[(arena.initial, aut.initial)], tuple(edges))
    return ParityProduct(game, index, tuple(origin))


# ---------------------------------------------------------------------------
# Solving games with an explicit Muller condition on the colours.

def _colour_bits(arena: Arena, cond: MullerCondition) -> list[int]:
    """The condition's bit of each arena colour, by position; an arena
    colour the condition does not name is malformed input."""
    bits = []
    for sym in arena.colours.symbols:
        if sym not in cond.alphabet:
            raise MalformedInput(f"arena colour {sym!r} missing from the condition")
        bits.append(cond.alphabet.bit(sym))
    return bits


def muller_regions(arena: Arena, cond: MullerCondition
                   ) -> tuple[frozenset[int], frozenset[int]]:
    """Winning regions of the colour player and of the opponent, decided on
    the arena with no product by the Zielonka solver guided by the
    condition's tree (Zielonka 1998; Dziembowski, Jurdziński and Walukiewicz
    1997)."""
    bit = _colour_bits(arena, cond)
    check_tree_alphabet(cond)
    src, dst, colours = zip(*((s, d, 0 if c is None else bit[c])
                              for s, d, c in arena.edges))
    regions, _ = _zielonka(arena.eve, [arena.out_edges(v) for v in range(arena.n_vertices)],
                           src, dst, colours, cond.alphabet.full_mask,
                           cond.accepting.__contains__, cond.children)
    return frozenset(regions[0]), frozenset(regions[1])


def solve_muller_game(arena: Arena, cond: MullerCondition):
    """Winner from the initial vertex and, when the colour player wins, a
    strategy built on the colour-tracking memory of the condition's parity
    automaton.

    Returns (winner, memory, table) with memory and table set to None when
    the opponent wins.  The winner is decided on the arena by muller_regions;
    for a colour player's win, the product with the condition's parity
    automaton is built over her region only, where she wins every pair, and
    solved.  The strategy is read off that solved product: a walk from its
    initial vertex follows the solver's edge at her vertices and every edge
    at the opponent's, and each product vertex it visits is an (arena
    vertex, automaton state) pair.  The memory is chromatic: its states are
    the automaton states the walk visits, numbered in order of first visit,
    and it advances by reading colours as the automaton does; a colour
    whose target the walk never visits keeps the state, and no play from
    the initial configuration reads it.  The table lists one move for each
    colour-player configuration the walk visits.
    """
    region = muller_regions(arena, cond)[0]
    if arena.initial not in region:
        return "adam", None, None
    aut = parity_automaton(cond)
    product = product_with_parity(arena, aut, region)
    solution = solve_parity_game(product.game)
    if product.game.initial not in solution.eve_region:
        raise RuntimeError("the parity product contradicts muller_regions")
    game = product.game
    pairs = list(product.index)  # product vertex -> (arena vertex, automaton state)
    states = {aut.initial: 0}  # automaton state -> memory state, by first visit
    moves: dict[tuple[int, int], int] = {}
    seen = {game.initial}
    queue = [game.initial]
    for p in queue:  # queue grows as product vertices are found
        v, q = pairs[p]
        if game.eve[p]:
            chosen = solution.eve_strategy[p]
            moves[(v, states[q])] = product.edge_origin[chosen]
            options: tuple[int, ...] = (chosen,)
        else:
            options = game.out_edges(p)
        for e in options:
            dst = game.edges[e][1]
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
                states.setdefault(pairs[dst][1], len(states))
    remap = [aut.input_alphabet.position(sym) for sym in arena.colours.symbols]
    update = tuple(tuple(states.get(aut.delta[q][remap[c]][0], m)
                         for c in range(len(arena.colours)))
                   for q, m in states.items())
    memory = MemoryStructure("chromatic", len(states), 0, update)
    return "eve", memory, StrategyTable.from_dict(moves)


def verify_strategy(arena: Arena, cond: MullerCondition,
                    memory: MemoryStructure, table: StrategyTable) -> bool:
    """Check a strategy: every cycle of the strategy-restricted configuration
    graph must produce an accepting colour set.

    Structural problems (wrong table domain, wrong memory width) raise
    malformed-input errors; a losing strategy simply returns False.
    """
    if not memory.width_matches(arena):
        raise MalformedInput("memory update width does not match the arena")
    bit = _colour_bits(arena, cond)
    # the (vertex, memory) graph reachable under the table, breadth first
    start = (arena.initial, memory.initial)
    index: dict[tuple[int, int], int] = {start: 0}
    queue = [start]
    edges: list[tuple[int, int, int]] = []  # (src, dst, condition bit or 0)
    for src, (v, m) in enumerate(queue):  # queue grows as configs are found
        if arena.eve[v]:
            chosen = table.move(v, m)
            if chosen not in arena.out_edges(v):
                raise MalformedInput(
                    f"strategy picks edge {chosen} which does not leave vertex {v}")
            options: tuple[int, ...] = (chosen,)
        else:
            options = arena.out_edges(v)
        for e in options:
            _, dst, colour = arena.edges[e]
            key = (dst, memory.step(m, e, colour))
            if key not in index:
                index[key] = len(queue)
                queue.append(key)
                if len(index) > MAX_CONFIGS:
                    raise ScaleGuard(f"configuration graph reached {len(index)}"
                                     f" nodes, limit {MAX_CONFIGS}")
            edges.append((src, index[key], 0 if colour is None else bit[colour]))
    # every cycle accepts when each component accepts and has no alternating children
    accepts = cond.accepting.__contains__
    for _, cover, internal in subcycles(edges, -1):
        if cover.bit_count() > MAX_TREE_LETTERS:
            raise ScaleGuard(f"{cover.bit_count()} colours in one component,"
                             f" limit {MAX_TREE_LETTERS}")
        if not accepts(cover) or alternating_children(internal, cover, accepts, cond.children):
            return False
    return True


def min_chromatic_memory_exhaustive(arena: Arena, cond: MullerCondition,
                                    max_size: int) -> Optional[int]:
    """Least memory size winning the game with colour-driven updates.

    For each size, every canonical colour-update structure is paired with a
    depth-first search over strategy tables on the reachable configurations;
    the first size admitting a verified winning pair is returned, or None
    when none up to max_size works; a size below 1 raises
    PreconditionViolation.  A game the colour player loses, as decided by
    muller_regions, is answered None before any table is drawn.

    The condition restricted to the arena's colours bounds the answer: the
    structure of a minimal Rabin automaton for it is a chromatic memory with
    which the colour player wins every game over it that they win at all
    (Casares 2021; it rests on the positionality of Rabin games, Klarlund
    1994).  The game is won here, so once the structure search of
    min_rabin_size, run one size after another, finds that structure at the
    current size, the size is the answer and no table is drawn for it.
    Smaller sizes are still enumerated in full, and sizes whose tables
    exceed the structure search's MAX_TABLE_CELLS are only enumerated.
    """
    if max_size < 1:
        raise PreconditionViolation(f"state budget {max_size} is below 1")
    g = len(arena.colours)
    if g > 8:
        raise ScaleGuard(f"{g} colours, limit 8")
    if arena.n_vertices * max_size > 400:
        raise ScaleGuard(f"{arena.n_vertices} vertices × {max_size} states"
                         f" = {arena.n_vertices * max_size}, limit 400")
    rejecting = _rejecting_sets(arena, cond)
    own = MullerCondition(arena.colours, frozenset(
        colours for colours in range(1, 1 << g) if colours not in rejecting[0]))
    if arena.initial in muller_regions(arena, own)[1]:
        return None
    tables = _typeable_tables(own)  # stepped once a size: the sizes that fit come first
    for size in range(1, max_size + 1):
        if size * g <= MAX_TABLE_CELLS and next(tables)[1] is not None:
            return size
        for flat in canonical_structures(size, g):
            update = tuple(tuple(flat[m * g + c] for c in range(g))
                           for m in range(size))
            memory = MemoryStructure("chromatic", size, 0, update)
            if _exists_winning_table(arena, memory, rejecting):
                return size
    return None


def _rejecting_sets(arena: Arena, cond: MullerCondition) -> dict[int, list[int]]:
    """Rejecting sets of arena colour positions (as bitsets) that a cycle
    through an edge may produce, keyed by the edge's colour bit: the sets
    holding that colour, and every rejecting set for a silent edge (key 0)."""
    bit = _colour_bits(arena, cond)
    g = len(bit)
    rejecting = [colours for colours in range(1, 1 << g)
                 if not cond.admits(sum(bit[c] for c in range(g) if colours >> c & 1))]
    found = {1 << c: [colours for colours in rejecting if colours >> c & 1]
             for c in range(g)}
    found[0] = rejecting
    return found


def _exists_winning_table(arena: Arena, memory: MemoryStructure,
                          rejecting: dict[int, list[int]]) -> bool:
    """Depth-first search over strategy tables on reachable configurations.

    Configurations are discovered as choices are made; the opponent's moves
    are expanded eagerly, the colour player's lazily.  A rejecting cycle can
    only survive further choices (edges are only ever added), so a choice
    that closes one prunes the whole subtree.  The cycles a choice creates
    are those using one of the edges it adds: the chosen edge and the
    opponent's edges expanded behind it.  Each such edge is checked, by
    cycles_through, against the rejecting sets (from _rejecting_sets) its
    colour can lie in.
    """
    index: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []  # discovery order, for undo
    eve_configs: list[tuple[int, int]] = []
    out: list[list[tuple[int, int]]] = []  # per node: (successor, colour bit)
    edges: list[tuple[int, int, int]] = []  # (src, dst, colour bit), in order

    def add_edge(src: int, dst: int, colour: Optional[int]) -> None:
        bits = 0 if colour is None else 1 << colour
        out[src].append((dst, bits))
        edges.append((src, dst, bits))

    def discover(cfg) -> None:
        if cfg in index:
            return
        index[cfg] = len(index)
        order.append(cfg)
        out.append([])
        v, m = cfg
        if arena.eve[v]:
            eve_configs.append(cfg)
            return
        for e in arena.out_edges(v):
            _, dst, colour = arena.edges[e]
            nxt = (dst, memory.step(m, e, colour))
            discover(nxt)
            add_edge(index[cfg], index[nxt], colour)

    def new_cycles_accepting(first_edge: int) -> bool:
        for src, dst, bits in edges[first_edge:]:
            for _ in cycles_through(out, src, dst, rejecting[bits]):
                return False
        return True

    def explore(cursor: int) -> bool:
        # a move is chosen at the configurations before cursor, and only there
        if cursor == len(eve_configs):
            return True  # the check after the last choice covered the graph
        cfg = eve_configs[cursor]
        v, m = cfg
        for e in arena.out_edges(v):
            saved_nodes, saved_edges = len(order), len(edges)
            saved_eve = len(eve_configs)
            _, dst, colour = arena.edges[e]
            nxt = (dst, memory.step(m, e, colour))
            discover(nxt)
            add_edge(index[cfg], index[nxt], colour)
            if new_cycles_accepting(saved_edges) and explore(cursor + 1):
                return True
            for gone in order[saved_nodes:]:
                del index[gone]
            del order[saved_nodes:]
            del eve_configs[saved_eve:]
            del out[saved_nodes:]
            out[index[cfg]].pop()  # the only new edge leaving an old node
            del edges[saved_edges:]
        return False

    discover((arena.initial, memory.initial))
    if not new_cycles_accepting(0):
        return False
    return explore(0)


# ---------------------------------------------------------------------------
# Condition families and named arenas used across examples and experiments.

def exactly_two_colours(symbols) -> MullerCondition:
    """Accepting sets are exactly the two-element colour sets."""
    alphabet = symbols if isinstance(symbols, Alphabet) else Alphabet(tuple(symbols))
    family = frozenset(bits for bits in range(1, alphabet.full_mask + 1)
                       if bits.bit_count() == 2)
    return MullerCondition(alphabet, family)


def at_least_two_colours(symbols) -> MullerCondition:
    """Accepting sets are the colour sets with two or more elements."""
    alphabet = symbols if isinstance(symbols, Alphabet) else Alphabet(tuple(symbols))
    family = frozenset(bits for bits in range(1, alphabet.full_mask + 1)
                       if bits.bit_count() >= 2)
    return MullerCondition(alphabet, family)


def separation_game() -> Arena:
    """Arena separating colour-driven from unrestricted memory.

    The opponent once picks one of three loop gadgets; each gadget offers two
    loops through private middle vertices, and the colour player must keep
    alternating the gadget's two loop colours forever.  Two memory states
    driven by colours cannot do it, two driven by edges can.
    """
    colours = Alphabet(("a", "b", "c"))
    a, b, c = 0, 1, 2
    eve = (False, True, True, True, True, True, True, True, True, True)
    edges = (
        (0, 1, a), (0, 2, a), (0, 3, a),
        (1, 4, a), (1, 5, b),
        (2, 6, b), (2, 7, c),
        (3, 8, a), (3, 9, c),
        (4, 1, a), (5, 1, b),
        (6, 2, b), (7, 2, c),
        (8, 3, a), (9, 3, c),
    )
    return Arena(colours, eve, 0, edges)


def separation_condition() -> MullerCondition:
    return exactly_two_colours(("a", "b", "c"))


def separation_chromatic_memory() -> tuple[MemoryStructure, StrategyTable]:
    """Three colour-driven memory states (the last colour read) winning the
    separation arena: always leave by the smallest loop colour different
    from the memorised one."""
    memory = MemoryStructure("chromatic", 3, 0, ((0, 1, 2), (0, 1, 2), (0, 1, 2)))
    moves = {
        (1, 0): 4, (1, 1): 3, (1, 2): 3,
        (2, 0): 5, (2, 1): 6, (2, 2): 5,
        (3, 0): 8, (3, 1): 7, (3, 2): 7,
        (4, 0): 9, (4, 1): 9, (4, 2): 9,
        (5, 0): 10, (5, 1): 10, (5, 2): 10,
        (6, 0): 11, (6, 1): 11, (6, 2): 11,
        (7, 0): 12, (7, 1): 12, (7, 2): 12,
        (8, 0): 13, (8, 1): 13, (8, 2): 13,
        (9, 0): 14, (9, 1): 14, (9, 2): 14,
    }
    return memory, StrategyTable.from_dict(moves)


def separation_general_memory() -> tuple[MemoryStructure, StrategyTable]:
    """Two edge-driven memory states winning the separation arena: flip on
    every return edge of a gadget, and let the flip choose the next loop."""
    flips = {9, 10, 11, 12, 13, 14}
    row0 = tuple(1 if e in flips else 0 for e in range(15))
    row1 = tuple(0 if e in flips else 1 for e in range(15))
    memory = MemoryStructure("general", 2, 0, (row0, row1))
    moves = {
        (1, 0): 3, (1, 1): 4,
        (2, 0): 5, (2, 1): 6,
        (3, 0): 7, (3, 1): 8,
        (4, 0): 9, (4, 1): 9,
        (5, 0): 10, (5, 1): 10,
        (6, 0): 11, (6, 1): 11,
        (7, 0): 12, (7, 1): 12,
        (8, 0): 13, (8, 1): 13,
        (9, 0): 14, (9, 1): 14,
    }
    return memory, StrategyTable.from_dict(moves)


def two_cycle_game(first_colours, second_colours, symbols) -> Arena:
    """One choice vertex with two coloured cycles hanging off it."""
    alphabet = symbols if isinstance(symbols, Alphabet) else Alphabet(tuple(symbols))
    first = [alphabet.position(s) for s in first_colours]
    second = [alphabet.position(s) for s in second_colours]
    if not first or not second:
        raise MalformedInput("both cycles need at least one colour")
    edges: list[tuple[int, int, Optional[int]]] = []
    n = 1

    def add_cycle(colour_list):
        nonlocal n
        prev = 0
        for i, c in enumerate(colour_list):
            last = i == len(colour_list) - 1
            target = 0 if last else n
            edges.append((prev, target, c))
            if not last:
                prev = n
                n += 1

    add_cycle(first)
    add_cycle(second)
    eve = tuple(True for _ in range(n))
    return Arena(alphabet, eve, 0, tuple(edges))


# ---------------------------------------------------------------------------
# Two memory states suffice for "at least two colours" without silent edges.

def two_state_memory_min2(arena: Arena) -> tuple[MemoryStructure, StrategyTable]:
    """Build a two-state edge-driven winning memory for the condition
    'at least two distinct colours appear infinitely often'.

    Only defined on arenas without silent edges that the colour player wins
    from the initial vertex.  Each winning vertex of the colour player gets a
    base edge; in state zero she plays it and switches to state one, where
    she follows a uniform reachability strategy chasing a colour different
    from the base one.  The memory drops back to state zero when her move
    produces such a colour, and also whenever any edge arrives at one of her
    vertices whose base colour differs from the colour just produced, so a
    play that keeps showing a single colour would keep replaying base edges
    of exactly that colour and drive the chase ranking down forever.
    """
    if not arena.epsilon_free:
        raise PreconditionViolation("arena must have no silent edges")
    if len(arena.colours) < 2:
        raise PreconditionViolation("need at least two colours in the arena")
    region = muller_regions(arena, at_least_two_colours(arena.colours))[0]
    if arena.initial not in region:
        raise PropertyViolation("the colour player loses from the initial vertex")
    inside: dict[int, list[int]] = {}
    for v in sorted(region):
        kept = []
        for e in arena.out_edges(v):
            _, dst, _ = arena.edges[e]
            if dst in region:
                kept.append(e)
            elif not arena.eve[v]:
                raise PropertyViolation(
                    "winning region is not closed under the opponent's moves")
        if not kept:
            raise PropertyViolation(
                f"vertex {v} of the winning region has no edge staying inside it")
        inside[v] = kept
    base_edge = {v: inside[v][0] for v in inside}
    base_colour = {v: arena.edges[base_edge[v]][2] for v in inside}

    def chase_strategy(avoid: int) -> dict[int, int]:
        """Uniform positional strategy whose every play, from every region
        vertex, keeps traversing edges coloured differently from avoid."""
        done: dict[int, int] = {}
        while len(done) < len(inside):
            progressed = False
            for v in sorted(inside):
                if v in done:
                    continue
                good = [e for e in inside[v]
                        if arena.edges[e][2] != avoid or arena.edges[e][1] in done]
                if arena.eve[v]:
                    if good:
                        done[v] = good[0]
                        progressed = True
                elif len(good) == len(inside[v]):
                    done[v] = -1
                    progressed = True
            if not progressed:
                raise PropertyViolation(
                    "a region vertex cannot force a colour other than"
                    f" {arena.colours.symbols[avoid]!r}; the region is wrong")
        return done

    chase = {x: chase_strategy(x) for x in range(len(arena.colours))}
    n_edges = len(arena.edges)
    row0 = [0] * n_edges
    row1 = [1] * n_edges
    for e, (src, dst, colour) in enumerate(arena.edges):
        # restart the base phase on arrival at a colour-player vertex whose
        # base colour disagrees with the colour just produced: its base edge
        # is played next, so a disagreeing colour is produced immediately
        if arena.eve[dst] and dst in region and base_colour[dst] != colour:
            row0[e] = 0
            row1[e] = 0
        elif arena.eve[src] and src in region:
            row0[e] = 1  # base edge played, start chasing
            row1[e] = 0 if colour != base_colour[src] else 1
        # anything else (the opponent's moves in particular) keeps the state
    memory = MemoryStructure("general", 2, 0, (tuple(row0), tuple(row1)))
    moves: dict[tuple[int, int], int] = {}
    for v in range(arena.n_vertices):
        if not arena.eve[v]:
            continue
        if v in region:
            moves[(v, 0)] = base_edge[v]
            moves[(v, 1)] = chase[base_colour[v]][v]
        else:
            moves[(v, 0)] = arena.out_edges(v)[0]
            moves[(v, 1)] = arena.out_edges(v)[0]
    return memory, StrategyTable.from_dict(moves)


# ---------------------------------------------------------------------------
# JSON encoding of arenas, memories and strategies.

def arena_to_json(arena: Arena, cond: Optional[MullerCondition] = None) -> dict:
    data = {
        "vertices": [{"id": v, "owner": "eve" if arena.eve[v] else "adam"}
                     for v in range(arena.n_vertices)],
        "initial": arena.initial,
        "edges": [{"from": src, "to": dst,
                   "colour": None if colour is None else arena.colours.symbols[colour]}
                  for src, dst, colour in arena.edges],
    }
    if cond is not None:
        data["condition"] = condition_to_json(cond)
    return data


def arena_from_json(data: object) -> tuple[Arena, Optional[MullerCondition]]:
    if not isinstance(data, dict):
        raise MalformedInput("game must be a JSON object")
    for field_name in ("vertices", "initial", "edges"):
        if field_name not in data:
            raise MalformedInput(f"game is missing field '{field_name}'")
    vertices = data["vertices"]
    if not isinstance(vertices, list):
        raise MalformedInput("field 'vertices' must be a list")
    eve = []
    for i, entry in enumerate(vertices):
        if not (isinstance(entry, dict) and is_integer(entry.get("id"))
                and entry["id"] == i):
            raise MalformedInput("vertex ids must be 0,1,... in order")
        owner = entry.get("owner")
        if owner not in ("eve", "adam"):
            raise MalformedInput(f"vertex {i} owner must be 'eve' or 'adam'")
        eve.append(owner == "eve")
    cond = None
    if "condition" in data and data["condition"] is not None:
        cond = condition_from_json(data["condition"])
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise MalformedInput("field 'edges' must be a list")
    colour_names: list[str] = []
    if cond is not None:
        colour_names = list(cond.alphabet.symbols)
    else:
        for entry in raw_edges:
            if isinstance(entry, dict) and isinstance(entry.get("colour"), str):
                if entry["colour"] not in colour_names:
                    colour_names.append(entry["colour"])
    if not colour_names:
        raise MalformedInput("game uses no colours at all")
    alphabet = Alphabet(tuple(colour_names))
    edges = []
    for entry in raw_edges:
        if not isinstance(entry, dict):
            raise MalformedInput("each edge must be an object")
        src, dst = entry.get("from"), entry.get("to")
        if not is_integer(src) or not is_integer(dst):
            raise MalformedInput("edge endpoints must be integers")
        colour = entry.get("colour")
        edges.append((src, dst,
                      None if colour is None else alphabet.position(colour)))
    if not is_integer(data["initial"]):
        raise MalformedInput("field 'initial' must be an integer")
    return Arena(alphabet, tuple(eve), data["initial"], tuple(edges)), cond


def strategy_to_json(memory: MemoryStructure, table: StrategyTable,
                     arena: Arena) -> dict:
    if memory.kind == "chromatic":
        update = [[m, arena.colours.symbols[c], memory.update[m][c]]
                  for m in range(memory.size) for c in range(len(arena.colours))]
    else:
        update = [[m, e, memory.update[m][e]]
                  for m in range(memory.size) for e in range(len(arena.edges))]
    return {
        "memory": {"states": memory.size, "initial": memory.initial,
                   "kind": memory.kind, "update": update},
        "table": [{"vertex": v, "mstate": m, "edge": e}
                  for v, m, e in table.moves],
    }


def strategy_from_json(data: object, arena: Arena
                       ) -> tuple[MemoryStructure, StrategyTable]:
    if not isinstance(data, dict) or "memory" not in data or "table" not in data:
        raise MalformedInput("strategy needs 'memory' and 'table' fields")
    mem = data["memory"]
    if not isinstance(mem, dict):
        raise MalformedInput("field 'memory' must be an object")
    for field_name in ("states", "initial", "kind", "update"):
        if field_name not in mem:
            raise MalformedInput(f"memory is missing field '{field_name}'")
    size = mem["states"]
    if not is_integer(size) or not is_integer(mem["initial"]):
        raise MalformedInput("memory fields 'states' and 'initial' must be integers")
    kind = mem["kind"]
    if kind not in ("general", "chromatic"):
        raise MalformedInput("memory kind must be 'general' or 'chromatic'")
    width = len(arena.colours) if kind == "chromatic" else len(arena.edges)
    if not isinstance(mem["update"], list):
        raise MalformedInput("memory field 'update' must be a list")
    # counted before allocating; without duplicates every cell is then set
    if len(mem["update"]) != size * width:
        raise MalformedInput(f"memory update has {len(mem['update'])} entries, not"
                             f" states × columns = {size} × {width}")
    rows = [[None] * width for _ in range(size)]
    for entry in mem["update"]:
        if not isinstance(entry, list) or len(entry) != 3:
            raise MalformedInput("each update entry must be [state, key, state]")
        m, key, m2 = entry
        if kind == "chromatic":
            column = arena.colours.position(key)
        else:
            if not is_integer(key) or not 0 <= key < len(arena.edges):
                raise MalformedInput(f"update key {key!r} is not an edge id")
            column = key
        if not (is_integer(m) and is_integer(m2)
                and 0 <= m < size and 0 <= m2 < size):
            raise MalformedInput("update states out of range")
        if rows[m][column] is not None:
            raise MalformedInput("duplicate update entry")
        rows[m][column] = m2
    memory = MemoryStructure(kind, size, mem["initial"],
                             tuple(tuple(row) for row in rows))
    if not isinstance(data["table"], list):
        raise MalformedInput("field 'table' must be a list")
    moves = {}
    for entry in data["table"]:
        if not isinstance(entry, dict):
            raise MalformedInput("each table entry must be an object")
        v, m, e = entry.get("vertex"), entry.get("mstate"), entry.get("edge")
        if not all(is_integer(x) for x in (v, m, e)):
            raise MalformedInput("table entries need integer vertex, mstate, edge")
        if (v, m) in moves:
            raise MalformedInput(f"duplicate table entry for vertex {v}, memory {m}")
        moves[(v, m)] = e
    return memory, StrategyTable.from_dict(moves)
