"""Independent reference implementations used to grade the library."""
from __future__ import annotations

import itertools
from types import SimpleNamespace

from mullertools.core import Automaton
from mullertools.games import ParityGame


def closed_walk_sets(n_nodes: int, edges, start: int) -> set[int]:
    """Colour sets of closed walks through start, by saturation over
    (node, colour set) pairs.  Edges are (src, dst, colour_bit) with
    colour_bit 0 for silent edges.  Every strongly connected edge subset is
    traced out by some closed walk and vice versa, so this grades the
    cycle-set computations without sharing any code with them."""
    adj = [[] for _ in range(n_nodes)]
    for src, dst, bit in edges:
        adj[src].append((dst, bit))
    seen = set()
    frontier = []
    for dst, bit in adj[start]:
        if (dst, bit) not in seen:
            seen.add((dst, bit))
            frontier.append((dst, bit))
    result = set()
    while frontier:
        node, mask = frontier.pop()
        if node == start:
            result.add(mask)
        for dst, bit in adj[node]:
            key = (dst, mask | bit)
            if key not in seen:
                seen.add(key)
                frontier.append(key)
    return result


def edge_walks(edges, src: int, dst: int, label: int, forbidden: int,
               within=None) -> tuple[set[int], int]:
    """Nodes and union of labels of the closed walks that start with the
    edge src -> dst labelled label, use only edges whose label avoids
    forbidden (silent edges always count) and stay on the nodes in within
    when given.  Saturation over (node, labels so far, nodes so far) from the
    far end of the edge, recording a walk each time it returns to src."""
    allowed = [(u, w, bits) for u, w, bits in edges
               if not bits & forbidden and (within is None or w in within)]
    start = (dst, label, frozenset((src, dst)))
    seen = {start}
    frontier = [start]
    nodes, cover = set(), 0
    while frontier:
        node, mask, visited = frontier.pop()
        if node == src:
            nodes |= visited
            cover |= mask
        for u, w, bits in allowed:
            if u == node:
                key = (w, mask | bits, visited | {w})
                if key not in seen:
                    seen.add(key)
                    frontier.append(key)
    return nodes, cover


def automaton_cycle_sets(aut: Automaton, state: int, over: str = "output") -> set[int]:
    """Reference for realizable_cycle_sets, via closed walks."""
    edges = []
    for src in range(aut.n_states):
        for a, (dst, out) in enumerate(aut.delta[src]):
            bit = 1 << (out if over == "output" else a)
            edges.append((src, dst, bit))
    sets = closed_walk_sets(aut.n_states, edges, state)
    sets.discard(0)
    return sets


def brute_chromatic(n_vertices: int, edge_list) -> int:
    """Smallest number of colour classes, by trying every assignment."""
    for k in range(1, n_vertices + 1):
        for assignment in itertools.product(range(k), repeat=n_vertices):
            if all(assignment[u - 1] != assignment[v - 1] for u, v in edge_list):
                return k
    raise AssertionError("unreachable for a loop-free graph")


def quad_max_inclusion(family) -> set[int]:
    """Inclusion-maximal members by pairwise comparison."""
    items = set(family)
    return {a for a in items
            if not any(a != b and a | b == b for b in items)}


def alternation_accepted(graph_edges, prefix, period) -> bool:
    """Whether the letters recurring forever are exactly the two endpoints
    of some edge (the word settles into blocks of the two endpoints)."""
    recurring = set(period)
    return any({str(u), str(v)} == recurring for u, v in graph_edges)


def positional_parity_winner(eve, edges, out_edges, start) -> bool:
    """True when the first player wins the edge-priority parity game from
    start, by enumerating positional strategies for both players.  Parity
    games are positionally determined, so this is exact (and tiny-scale
    only)."""
    n = len(eve)
    eve_vs = [v for v in range(n) if eve[v]]
    adam_vs = [v for v in range(n) if not eve[v]]

    def lasso_even(choice) -> bool:
        # drive the unique play from start, find its cycle, take max priority
        seen_at = {}
        trace = []
        v = start
        while v not in seen_at:
            seen_at[v] = len(trace)
            e = choice[v]
            trace.append(e)
            v = edges[e][1]
        cycle = trace[seen_at[v]:]
        return max(edges[e][2] for e in cycle) % 2 == 0

    for eve_pick in itertools.product(*(out_edges[v] for v in eve_vs)):
        eve_choice = dict(zip(eve_vs, eve_pick))
        if all(lasso_even({**eve_choice, **dict(zip(adam_vs, adam_pick))})
               for adam_pick in itertools.product(*(out_edges[v] for v in adam_vs))):
            return True
    return False


def parity_strategy_wins(eve, edges, region, strategy, player: int) -> bool:
    """Whether a positional strategy ({vertex: edge id}) wins every play
    from region for player (0 for the first player, who wants the top
    recurring priority even): the player has a move at each of her region
    vertices, every move left open stays in region, and every cycle of what
    is left has a top priority of the player's parity.  A cycle whose top
    edge e has the wrong parity exists exactly when e's target reaches e's
    source over edges of priority at most e's."""
    mine = 0 if player == 0 else 1
    for v in region:
        if (0 if eve[v] else 1) == mine and (
                v not in strategy or edges[strategy[v]][0] != v):
            return False
    kept = []
    for e, (src, dst, priority) in enumerate(edges):
        if src not in region:
            continue
        if (0 if eve[src] else 1) == mine and strategy[src] != e:
            continue
        if dst not in region:
            return False
        kept.append((src, dst, priority))
    adj = {v: [] for v in region}
    for src, dst, priority in kept:
        adj[src].append((dst, priority))
    for src, dst, priority in kept:
        if priority % 2 == player:
            continue
        seen, frontier = {dst}, [dst]
        while frontier:
            v = frontier.pop()
            if v == src:
                return False
            for w, p in adj[v]:
                if p <= priority and w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return True


def first_reference_tables(k: int, g: int) -> list[tuple[int, ...]]:
    """Every flat k-state, g-letter table (row-major) whose states are all
    reachable from state 0 and numbered in order of first reference, found by
    filtering itertools.product."""
    def first_reference(flat) -> bool:
        top = 0
        for v in flat:
            if v > top + 1:
                return False
            top = max(top, v)
        return True

    tables = []
    for flat in itertools.product(range(k), repeat=k * g):
        if not first_reference(flat):
            continue
        reached, frontier = {0}, [0]
        while frontier:
            q = frontier.pop()
            for dst in flat[q * g:(q + 1) * g]:
                if dst not in reached:
                    reached.add(dst)
                    frontier.append(dst)
        if len(reached) == k:
            tables.append(flat)
    return tables


def table_typeable(flat, k: int, g: int, accepting) -> bool:
    """Rabin typeness of a letter-output table, judged from closed_walk_sets:
    no state has two rejecting cycle sets whose union is accepting."""
    edges = [(q, flat[q * g + a], 1 << a) for q in range(k) for a in range(g)]
    for state in range(k):
        rejecting = [s for s in closed_walk_sets(k, edges, state) if s not in accepting]
        if any(x | y in accepting for x in rejecting for y in rejecting):
            return False
    return True


def brute_min_rabin_size(g: int, accepting, max_states: int):
    """(size, table) of the smallest typeable table over g letters, or
    (None, None).  The table is the first typeable letter-determined one
    (every row alike), else the lexicographically first typeable one."""
    for k in range(1, max_states + 1):
        tables = first_reference_tables(k, g)
        determined = [flat for flat in tables if flat == flat[:g] * k]
        for flat in determined + tables:
            if table_typeable(flat, k, g, accepting):
                return k, flat
    return None, None


def colour_set_wins(acceptance, bits: int) -> bool:
    """Verdict of an acceptance on a non-empty colour bitset, read straight
    off the acceptance's fields."""
    kind = acceptance.kind
    if kind == "muller":
        return bits in acceptance.condition.accepting
    if kind == "parity":
        top = max(p for i, p in enumerate(acceptance.priorities) if bits >> i & 1)
        return top % 2 == 0
    if kind == "rabin":
        return any(bits & meet and not bits & avoid for meet, avoid in acceptance.pairs)
    if kind == "genbuchi":
        return all(bits & s for s in acceptance.sets)
    raise AssertionError(f"no oracle verdict for kind {kind!r}")


def product_agrees(a1: Automaton, a2: Automaton) -> bool:
    """Language equality: every closed-walk colour set of the reachable
    synchronous product, read on both sides, gets the same verdict."""
    letters = a1.input_alphabet.symbols
    other = [a2.input_alphabet.symbols.index(sym) for sym in letters]
    shift = len(a1.output_alphabet.symbols)
    start = (a1.initial, a2.initial)
    index, frontier, edges = {start: 0}, [start], []
    while frontier:
        p, q = frontier.pop()
        for a in range(len(letters)):
            p2, c1 = a1.delta[p][a]
            q2, c2 = a2.delta[q][other[a]]
            if (p2, q2) not in index:
                index[(p2, q2)] = len(index)
                frontier.append((p2, q2))
            edges.append((index[(p, q)], index[(p2, q2)], 1 << c1 | 1 << (shift + c2)))
    left = (1 << shift) - 1
    return all(colour_set_wins(a1.acceptance, mask & left)
               == colour_set_wins(a2.acceptance, mask >> shift)
               for node in range(len(index))
               for mask in closed_walk_sets(len(index), edges, node))


def strategy_wins(arena, cond, memory, moves) -> bool:
    """Whether every closed walk of the configuration graph reachable under a
    chromatic memory and a move dict {(vertex, memory state): edge id} has
    an accepting colour set of the condition."""
    bit = [1 << cond.alphabet.symbols.index(sym) for sym in arena.colours.symbols]
    start = (arena.initial, memory.initial)
    index, frontier, edges = {start: 0}, [start], []
    while frontier:
        v, m = frontier.pop()
        options = [moves[(v, m)]] if arena.eve[v] else [
            e for e, (src, _, _) in enumerate(arena.edges) if src == v]
        for e in options:
            _, dst, colour = arena.edges[e]
            nxt = (dst, m if colour is None else memory.update[m][colour])
            if nxt not in index:
                index[nxt] = len(index)
                frontier.append(nxt)
            edges.append((index[(v, m)], index[nxt], 0 if colour is None else bit[colour]))
    return all(mask in cond.accepting
               for node in range(len(index))
               for mask in closed_walk_sets(len(index), edges, node))


def full_parity_product(arena, aut: Automaton) -> ParityGame:
    """Arena × parity automaton over every (vertex, state) pair, numbered
    v * n_states + q.  A coloured edge moves the automaton and carries the
    priority of its output; a silent edge keeps the state and carries the
    least priority."""
    nq = aut.n_states
    letter = [aut.input_alphabet.symbols.index(sym) for sym in arena.colours.symbols]
    priorities = aut.acceptance.priorities
    edges = []
    for v in range(arena.n_vertices):
        for q in range(nq):
            for src, dst, colour in arena.edges:
                if src != v:
                    continue
                if colour is None:
                    edges.append((v * nq + q, dst * nq + q, min(priorities)))
                else:
                    q2, out = aut.delta[q][letter[colour]]
                    edges.append((v * nq + q, dst * nq + q2, priorities[out]))
    eve = tuple(arena.eve[v] for v in range(arena.n_vertices) for _ in range(nq))
    return ParityGame(eve, arena.initial * nq + aut.initial, tuple(edges))


def brute_min_chromatic_memory(arena, cond, max_size: int):
    """Least number of colour-driven memory states with which some strategy
    table wins, or None up to max_size: every first-reference update table
    (initial state 0, silent edges keep the state) against every choice of
    move at every (colour-player vertex, memory state), judged by
    strategy_wins."""
    g = len(arena.colours.symbols)
    eve_vertices = [v for v in range(len(arena.eve)) if arena.eve[v]]
    options = {v: [e for e, (src, _, _) in enumerate(arena.edges) if src == v]
               for v in eve_vertices}
    for size in range(1, max_size + 1):
        pairs = [(v, m) for v in eve_vertices for m in range(size)]
        for flat in first_reference_tables(size, g):
            memory = SimpleNamespace(initial=0, update=[flat[m * g:(m + 1) * g]
                                                        for m in range(size)])
            for pick in itertools.product(*(options[v] for v, _ in pairs)):
                if strategy_wins(arena, cond, memory, dict(zip(pairs, pick))):
                    return size
    return None


def scc_by_reachability(vertices, edges):
    """Strongly connected components by mutual reachability, in the form
    strongly_connected_components returns: (sorted vertex tuple, internal
    edges in input order) pairs, ordered by smallest vertex.  Edges are
    tuples whose first two entries are the endpoints; an edge with an
    endpoint outside vertices is ignored."""
    verts = set(vertices)
    kept = [e for e in edges if e[0] in verts and e[1] in verts]
    reach = {}
    for v in verts:
        seen, frontier = {v}, [v]
        while frontier:
            u = frontier.pop()
            for e in kept:
                if e[0] == u and e[1] not in seen:
                    seen.add(e[1])
                    frontier.append(e[1])
        reach[v] = seen
    comps = {tuple(sorted(w for w in reach[v] if v in reach[w])) for v in verts}
    return [(comp, tuple(e for e in kept if e[0] in comp and e[1] in comp))
            for comp in sorted(comps)]


def closed_part_tree(aut: Automaton):
    """Zielonka tree, as nested (letter bitset, accepting, children) tuples
    with children by ascending label, of the condition on input letters that
    the cycles of a parity automaton's closed part judge; None when two of
    those cycles over the same letters get different verdicts.

    The closed part is the strongly connected set of states that no edge
    leaves and that holds the smallest such state.  Every non-empty letter
    set is the letter set of a cycle there, and the verdicts come from the
    closed walks through each of its states, with the letters and the
    priorities of every walk: a walk is accepted when its top priority is
    even."""
    n, width = aut.n_states, len(aut.input_alphabet.symbols)
    reach = []
    for q in range(n):
        seen, frontier = {q}, [q]
        while frontier:
            for target, _ in aut.delta[frontier.pop()]:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        reach.append(seen)
    part = next(reach[q] for q in range(n)
                if all(q in reach[r] for r in reach[q]))
    priorities = aut.acceptance.priorities
    edges = [(q, target, 1 << a | 1 << (width + priorities[colour]))
             for q in part for a, (target, colour) in enumerate(aut.delta[q])]
    verdicts = {}
    for q in part:
        for mask in closed_walk_sets(n, edges, q):  # letters, then priorities
            verdicts.setdefault(mask & ((1 << width) - 1), set()).add(
                (mask >> width).bit_length() % 2 == 1)
    if any(len(seen) > 1 for seen in verdicts.values()):
        return None
    accepts = {letters: seen.pop() for letters, seen in verdicts.items()}

    def node(label):
        other = [sub for sub in range(1, label)
                 if sub & label == sub and accepts[sub] != accepts[label]]
        largest = [sub for sub in other
                   if not any(sub != big and sub & big == sub for big in other)]
        return (label, accepts[label], tuple(node(sub) for sub in largest))

    return node((1 << width) - 1)
