"""Rabin-shaped acceptance: typeness checking, pair synthesis, language
equivalence and the search for the smallest transition structure that makes
an explicit Muller condition Rabin-expressible."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from operator import or_
from typing import Iterator, Optional

from .core import (MAX_COLOUR_BITS, Automaton, MalformedInput, MullerAcceptance,
                   MullerCondition, PreconditionViolation, PropertyViolation,
                   RabinAcceptance, ScaleGuard, UnsupportedOperation,
                   _cycle_covers, accepting_colour_set, alternating_children,
                   cycles_through, strongly_connected_components, subcycles,
                   transition_alphabet, zielonka_children)
from .graphs import SimpleGraph, chromatic_number
from .zielonka import general_memory

# most reachable product states of muller_equivalent and of rabin_equivalent
MAX_MULLER_PRODUCT = 200
MAX_RABIN_PRODUCT = 4000
# most cells (states × letters) of a table the structure search may fill
MAX_TABLE_CELLS = 36


@dataclass(frozen=True)
class RabinTypenessReport:
    """Outcome of the union-of-rejecting-cycles test.

    When not typeable, witness holds (state, first colour bitset, second
    colour bitset): both bitsets are rejecting and realizable as cycles
    through the state, while their union is accepting.
    """

    typeable: bool
    witness: Optional[tuple[int, int, int]]


class NotRabinTypeable(PropertyViolation):
    def __init__(self, aut: Automaton, report: RabinTypenessReport):
        state, first, second = report.witness
        names = aut.output_alphabet.names
        super().__init__(
            f"state {state} carries rejecting cycles over {list(names(first))} and"
            f" {list(names(second))} whose union is accepting")
        self.report = report


def _accepting_nodes(aut: Automaton) -> Iterator[tuple[tuple, list]]:
    """The accepting nodes of the automaton's alternating cycle
    decomposition in walk order, each as (internal edges, children), the
    edges being (state, target, colour bit, transition bit) with transitions
    numbered as in aut.edges().  Raises NotRabinTypeable at the first
    accepting node two of whose children share a state."""
    edges = [(q, target, 1 << colour, 1 << e)
             for e, (q, _, target, colour) in enumerate(aut.edges())]
    used = aut.used_output_bits()
    if used.bit_count() > 20:
        raise ScaleGuard(f"{used.bit_count()} distinct colours, limit 20")
    accepts = cache(partial(accepting_colour_set, aut.acceptance))
    split = cache(lambda colours: zielonka_children(colours, accepts))
    stack = list(subcycles(edges, used))[::-1]
    seen = set()  # overlapping children of a rejecting node share nodes below
    while stack:
        verts, cover, internal = stack.pop()
        if (verts, cover) in seen:
            continue
        seen.add((verts, cover))
        kids = alternating_children(internal, cover, accepts, split)
        if accepts(cover):
            for i, (first_verts, first, _) in enumerate(kids):
                for second_verts, second, _ in kids[i + 1:]:
                    if shared := first_verts & second_verts:
                        state = (shared & -shared).bit_length() - 1
                        raise NotRabinTypeable(aut, RabinTypenessReport(
                            False, (state, first, second)))
            yield internal, kids
        stack += reversed(kids)


def check_rabin_typeable(aut: Automaton) -> RabinTypenessReport:
    """Test whether the language of the automaton has a Rabin acceptance on
    the same transition structure.

    This holds exactly when rejecting realizable cycle sets are closed under
    union at every state, which is read off the alternating cycle
    decomposition (Casares-Colcombet-Fijalkow 2021): the tree whose roots are
    the strongly connected components and whose nodes have as children their
    largest subcycles on the other side of the acceptance.  Two rejecting
    children of an accepting node that share a state have an accepting
    union, a larger subcycle; two rejecting cycles with an accepting union
    lie in distinct rejecting children of the least node holding both.  So
    the walk, shared with synthesize_rabin_pairs, stops at the first
    accepting node whose children meet.
    """
    try:
        for _ in _accepting_nodes(aut):
            pass
    except NotRabinTypeable as exc:
        return exc.report
    return RabinTypenessReport(True, None)


def synthesize_rabin_pairs(aut: Automaton) -> Automaton:
    """Rabin pairs over a per-transition recolouring, named "state:input",
    of a Rabin-typeable automaton: per accepting node of its alternating
    cycle decomposition, the node's transitions outside every child against
    the transitions outside the node.

    A cycle has the verdict of the deepest node holding it, as a cycle of
    the other verdict lies in a child.  So a rejecting cycle inside an
    accepting node lies in a child and misses the first component, while an
    accepting cycle in no child of its deepest node meets a transition
    outside all children: typeness makes those children share no state, so
    a strongly connected set of their transitions lies inside one of them.
    Raises NotRabinTypeable (with the witness) when the automaton is not
    typeable, and ScaleGuard past MAX_ALPHABET transitions."""
    pairs: dict[tuple[int, int], None] = {}  # insertion-ordered set
    all_edges = (1 << aut.n_states * len(aut.input_alphabet)) - 1
    for internal, kids in _accepting_nodes(aut):
        inside = reduce(or_, (e[3] for e in internal))
        in_kids = reduce(or_, (e[3] for _, _, kid in kids for e in kid), 0)
        if not inside & ~in_kids:
            raise RuntimeError("an accepting node of a typeable automaton has"
                               " no transition outside its children")
        pairs[inside & ~in_kids, all_edges & ~inside] = None
    out = transition_alphabet(range(aut.n_states), aut.input_alphabet)
    width = len(aut.input_alphabet)
    rows = tuple(tuple((aut.delta[q][a][0], q * width + a) for a in range(width))
                 for q in range(aut.n_states))
    return Automaton(aut.n_states, aut.initial, aut.input_alphabet,
                     out, rows, RabinAcceptance(tuple(pairs)))


def _reachable_product(a1: Automaton, a2: Automaton, max_states: int):
    """Synchronous product reachable from the initial pair.

    Returns the edges, each (src, dst, colour bit of a1, colour bit of a2).
    """
    if set(a1.input_alphabet.symbols) != set(a2.input_alphabet.symbols):
        raise MalformedInput("automata read different input alphabets")
    remap = [a2.input_alphabet.position(sym) for sym in a1.input_alphabet.symbols]
    index: dict[tuple[int, int], int] = {(a1.initial, a2.initial): 0}
    queue = [(a1.initial, a2.initial)]
    edges: list[tuple[int, int, int, int]] = []
    for src, (p, q) in enumerate(queue):  # queue grows as pairs are found
        for a in range(len(a1.input_alphabet)):
            p2, c1 = a1.delta[p][a]
            q2, c2 = a2.delta[q][remap[a]]
            key = (p2, q2)
            if key not in index:
                if len(index) >= max_states:
                    raise ScaleGuard(f"product reached {len(index) + 1} states,"
                                     f" limit {max_states}")
                index[key] = len(index)
                queue.append(key)
            edges.append((src, index[key], 1 << c1, 1 << c2))
    return edges


def _exists_accepted_rejected(edges, meet_bits: int, streett_pairs) -> bool:
    """Search for a strongly connected edge set meeting meet_bits on the left
    colours while failing every Streett pair on the right colours."""
    verts = {v for e in edges for v in e[:2]}
    for _, internal in strongly_connected_components(verts, edges) if edges else ():
        if not internal:
            continue
        right = reduce(or_, (e[3] for e in internal))
        drop = reduce(or_, (first for first, second in streett_pairs
                            if right & first and not right & second), 0)
        if not drop:
            if any(c1 & meet_bits for _, _, c1, _ in internal):
                return True
        else:
            rest = [e for e in internal if not e[3] & drop]
            if _exists_accepted_rejected(rest, meet_bits, streett_pairs):
                return True
    return False


def _rabin_containment_fails(a1: Automaton, a2: Automaton) -> bool:
    """True when some word is accepted by a1 but rejected by a2."""
    edges = _reachable_product(a1, a2, MAX_RABIN_PRODUCT)
    return any(_exists_accepted_rejected([e for e in edges if not e[2] & avoid],
                                         meet, a2.acceptance.pairs)
               for meet, avoid in a1.acceptance.pairs)


def rabin_equivalent(a1: Automaton, a2: Automaton) -> bool:
    """Language equality of two deterministic Rabin automata.

    Checks both containments on the synchronous product; a missing word shows
    up as a strongly connected edge set accepted by one side (meets a pair's
    first component, avoids its second) on which the other side fails every
    one of its pairs read as Streett constraints.
    """
    if a1.acceptance.kind != "rabin" or a2.acceptance.kind != "rabin":
        raise UnsupportedOperation("rabin_equivalent needs Rabin acceptance on both sides")
    return not (_rabin_containment_fails(a1, a2) or _rabin_containment_fails(a2, a1))


def muller_equivalent(a1: Automaton, a2: Automaton) -> bool:
    """Language equality for any two acceptance kinds, by cycle enumeration.

    Labels each edge of the reachable synchronous product with the colours
    of both sides and walks every cycle cover of the product once; the
    languages differ exactly when some cover is judged differently by the
    two acceptances.
    """
    edges = _reachable_product(a1, a2, MAX_MULLER_PRODUCT)
    for side, label in ((2, "left"), (3, "right")):
        used = reduce(or_, (e[side] for e in edges))
        if used.bit_count() > MAX_COLOUR_BITS:
            raise ScaleGuard(f"{label} side uses {used.bit_count()} colours,"
                             f" limit {MAX_COLOUR_BITS}")
    shift = len(a1.output_alphabet)
    joint = [(src, dst, c1 | c2 << shift) for src, dst, c1, c2 in edges]
    left = (1 << shift) - 1
    for _, cover in _cycle_covers(joint):
        if (accepting_colour_set(a1.acceptance, cover & left)
                != accepting_colour_set(a2.acceptance, cover >> shift)):
            return False
    return True


# ---------------------------------------------------------------------------
# Smallest transition structure making a condition Rabin-expressible.

class _Typeness:
    """Rejecting realizable colour sets at each state of a table filled cell
    by cell in row-major order; transitions output the letter they read.

    A new edge only creates cycles through itself, so add() looks only at the
    rejecting colour sets holding its letter, inside the strongly connected
    component of the new edge.  A set newly realizable at a state is tested
    against those recorded there: two rejecting sets with an accepting union
    rule out Rabin acceptance, and adding edges never repairs that.
    """

    def __init__(self, k: int, g: int, acc: bytearray):
        self.g, self.acc = g, acc
        self.rejecting_with = [[c for c in range(1 << g) if (c >> a) & 1 and not acc[c]]
                               for a in range(g)]
        self.out: list[list[tuple[int, int]]] = [[] for _ in range(k)]  # (target, letter bit)
        self.sets: list[list[int]] = [[] for _ in range(k)]
        self.seen = bytearray(k << g)
        self.trail: list[tuple[int, int]] = []  # (state, set) in recording order
        self.marks: list[tuple[int, int]] = []  # (trail length, row) of each accepted cell

    def add(self, flat: list[int], i: int) -> bool:
        """Record the edge in cell i (cells before it are filled); on a
        violation undo the cell's records and return False."""
        g, acc, sets, seen, trail = self.g, self.acc, self.sets, self.seen, self.trail
        q, a = divmod(i, g)
        self.out[q].append((flat[i], 1 << a))
        self.marks.append((len(trail), q))
        for comp, colours in cycles_through(self.out, q, flat[i], self.rejecting_with[a]):
            for u in comp:
                if seen[u << g | colours]:
                    continue
                if any(acc[other | colours] for other in sets[u]):
                    self.undo()
                    return False
                sets[u].append(colours)
                seen[u << g | colours] = 1
                trail.append((u, colours))
        return True

    def undo(self) -> None:
        """Forget the edge and the records of the last accepted cell."""
        mark, q = self.marks.pop()
        self.out[q].pop()
        while len(self.trail) > mark:
            u, colours = self.trail.pop()
            self.sets[u].pop()
            self.seen[u << self.g | colours] = 0


def _tables(k: int, g: int, prefix: tuple[int, ...] = (),
            check: Optional[_Typeness] = None) -> Iterator[tuple[int, ...]]:
    """Complete first-reference tables with k states over g letters that
    start with prefix, in lexicographic order.  With a check, only tables it
    accepts, pruned after every cell; an exhausted enumeration leaves the
    check as it found it."""
    return _extend([0] * (k * g), 0, 0, k, g, prefix, check)


def _extend(flat: list[int], i: int, top: int, k: int, g: int,
            prefix: tuple[int, ...], check: Optional[_Typeness]) -> Iterator[tuple[int, ...]]:
    # a module-level recursion, so no closure cycle keeps the check alive
    if i == len(flat):
        if top == k - 1:
            yield tuple(flat)
        return
    if i // g > top or k - 1 - top > len(flat) - i:
        return  # this row's state is unreferenced, or too few cells remain
    for v in (prefix[i],) if i < len(prefix) else range(min(top + 1, k - 1) + 1):
        flat[i] = v
        if check is None or check.add(flat, i):
            yield from _extend(flat, i + 1, v if v > top else top, k, g, prefix, check)
            if check is not None:
                check.undo()


def canonical_structures(num_states: int, num_letters: int) -> Iterator[tuple[int, ...]]:
    """Complete deterministic transition tables, one per isomorphism class.

    Tables are flat tuples in row-major order (state major, letter minor).
    State ids appear in first-reference order starting from state 0, and
    every yielded table references all states, so each reachable structure on
    exactly num_states states shows up exactly once, in lexicographic order.
    """
    return _tables(num_states, num_letters)


def _letter_swaps(cond: MullerCondition) -> list[tuple[int, int]]:
    """Transpositions of two letters that map the accepting family onto itself."""
    def swapped(bits: int, a: int, b: int) -> int:
        flip = ((bits >> a) ^ (bits >> b)) & 1
        return bits ^ (flip << a | flip << b)

    g = len(cond.alphabet)
    return [(a, b) for a in range(g) for b in range(a + 1, g)
            if all(swapped(bits, a, b) in cond.accepting for bits in cond.accepting)]


def _kept_first_rows(k: int, g: int, swaps: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """First-reference first rows in lexicographic order, without those that
    a family-preserving letter swap, renumbered, makes smaller.  Renaming
    letters that way keeps typeness, so the smallest typeable table never
    starts with a dropped row."""
    rows: list[tuple[int, ...]] = [()]
    for _ in range(g):
        rows = [row + (v,) for row in rows
                for v in range(min(max(row, default=0) + 1, k - 1) + 1)]

    def beaten(row: tuple[int, ...]) -> bool:
        for a, b in swaps:
            names = {0: 0}
            image = list(row)
            image[a], image[b] = row[b], row[a]
            if tuple(names.setdefault(v, len(names)) for v in image) < row:
                return True
        return False

    return [row for row in rows if not beaten(row)]


def _conflicts(cond: MullerCondition) -> list[tuple[int, int]]:
    """Pairs of letters a < b with {a} and {b} rejecting and {a, b} accepting."""
    g, accepting = len(cond.alphabet), cond.accepting
    return [(a, b) for a in range(g) for b in range(a + 1, g)
            if (1 << a | 1 << b) in accepting
            and 1 << a not in accepting and 1 << b not in accepting]


def _lower_bound(cond: MullerCondition, conflicts: list[tuple[int, int]]) -> int:
    """Fewest states any typeable structure can have: the chromatic number of
    the letter-conflict graph, or the condition's general memory if larger."""
    conflict_graph = SimpleGraph(len(cond.alphabet),
                                 tuple((a + 1, b + 1) for a, b in conflicts))
    return max(chromatic_number(conflict_graph)[0], general_memory(cond))


def _find_structure(k: int, g: int, acc: bytearray, swaps: list[tuple[int, int]],
                    conflicts: list[tuple[int, int]]) -> Optional[tuple[int, ...]]:
    rows = _kept_first_rows(k, g, swaps)
    check = _Typeness(k, g, acc)
    # letter-determined tables first: they cover proper-colouring style
    # witnesses immediately and keep the returned structure small and tidy;
    # a row sending two conflicting letters to one state gives it both loops
    for row in rows:
        if max(row, default=0) == k - 1 and all(row[a] != row[b] for a, b in conflicts):
            for flat in _tables(k, g, row * k, check):
                return flat
    for row in rows:
        for flat in _tables(k, g, row, check):
            return flat
    return None


def min_rabin_size(cond: MullerCondition,
                   max_states: int) -> tuple[Optional[int], Optional[Automaton]]:
    """Fewest states of a deterministic structure over the condition's own
    colours on which the condition becomes Rabin-expressible.

    Tries first-reference tables (one per isomorphism class) with b, b + 1,
    ... states, b being the lower bound below, and returns the first size
    admitting a typeable structure, with the witness as a Muller automaton
    whose transitions output the letter they read: the first typeable
    letter-determined table, else the lexicographically first typeable one.
    The search runs in the calling process, one kept first row after
    another: typeness is checked after every filled cell, and first rows
    that a family-preserving swap of two letters makes smaller are skipped.
    Returns (None, None) when no structure up to max_states works; a budget
    below 1 raises PreconditionViolation.

    The bound b is the larger of two lower bounds, and a budget below it
    returns (None, None) without searching.  Call letters x and y
    conflicting when {x} and {y} are rejecting and {x, y} is accepting.
    Reading x^ω from any state ends on a cycle of x-transitions, so every
    letter x has a state on an {x}-cycle; if that state also lay on a
    {y}-cycle, the two rejecting cycles would have an accepting union there,
    which rules out Rabin acceptance.  So conflicting letters get distinct
    states and a typeable structure has at least χ(conflict graph) states.
    It also serves as a chromatic memory, which is never smaller than the
    general memory (Dziembowski-Jurdziński-Walukiewicz 1997).
    """
    if max_states < 1:
        raise PreconditionViolation(f"state budget {max_states} is below 1")
    g = len(cond.alphabet)
    if g > 16:
        raise ScaleGuard(f"condition alphabet of {g} symbols, limit 16")
    if max_states * g > MAX_TABLE_CELLS:
        raise ScaleGuard(f"{max_states} states × {g} letters = {max_states * g}"
                         f" cells, limit {MAX_TABLE_CELLS}; the structure search"
                         " would not finish at desk scale")
    acc = bytearray(bits in cond.accepting for bits in range(1 << g))
    swaps, conflicts = _letter_swaps(cond), _conflicts(cond)
    for k in range(_lower_bound(cond, conflicts), max_states + 1):
        flat = _find_structure(k, g, acc, swaps, conflicts)
        if flat is not None:
            rows = tuple(tuple((flat[q * g + a], a) for a in range(g))
                         for q in range(k))
            witness = Automaton(k, 0, cond.alphabet, cond.alphabet, rows,
                                MullerAcceptance(cond))
            return k, witness
    return None, None


def chromatic_memory(cond: MullerCondition, max_states: int) -> Optional[int]:
    """Smallest memory keyed on colours alone that suffices for the
    condition over every arena, or None above max_states.  By the main
    theorem of Casares 2021 it coincides with the smallest Rabin-expressible
    transition structure, so this is the size min_rabin_size finds."""
    size, _ = min_rabin_size(cond, max_states)
    return size
