"""Deterministic complete transition-based automata over coloured transitions.

States are integers, alphabets are ordered tuples of symbol names, and colour
sets are plain int bitsets indexed by alphabet position.  Acceptance only
depends on the set of colours produced infinitely often, so every semantic
question reduces to questions about cycles and their colour sets.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

MAX_ALPHABET = 64
MAX_COLOUR_BITS = 14  # most colour bits per side of a walk over all covers of _cycle_covers


class MullerToolsError(Exception):
    """Base class for errors raised by this package."""


class MalformedInput(MullerToolsError):
    """Input data (file, symbol, structure) does not satisfy its schema."""


class PreconditionViolation(MullerToolsError):
    """An operation was called outside its stated domain."""


class UnsupportedOperation(MullerToolsError):
    """The acceptance kind does not support the requested operation."""


class ScaleGuard(MullerToolsError):
    """The instance exceeds the documented size limits for this operation."""


class PropertyViolation(MullerToolsError):
    """A required semantic property fails; carries a witness when available."""


def is_integer(value: object) -> bool:
    """True for an integer that is not a boolean: JSON true and false load as
    Python bools, which are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def bit_indices(bits: int) -> Iterator[int]:
    """Yield the set bit positions of a bitset, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def submasks(mask: int) -> Iterator[int]:
    """Yield all non-empty submasks of a bitset, descending."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of symbol names with bitset encoding."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.symbols, tuple):
            object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise MalformedInput("alphabet must not be empty")
        if len(self.symbols) > MAX_ALPHABET:
            raise MalformedInput(
                f"alphabet has {len(self.symbols)} symbols, limit is {MAX_ALPHABET}")
        index: dict[str, int] = {}
        for i, sym in enumerate(self.symbols):
            if not isinstance(sym, str) or not sym:
                raise MalformedInput(f"symbol {sym!r} must be a non-empty string")
            if sym in index:
                raise MalformedInput(f"duplicate symbol {sym!r}")
            index[sym] = i
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index  # type: ignore[attr-defined]

    @property
    def full_mask(self) -> int:
        return (1 << len(self.symbols)) - 1

    def position(self, symbol: str) -> int:
        try:
            return self._index[symbol]  # type: ignore[attr-defined]
        except (KeyError, TypeError):  # TypeError: an unhashable JSON list
            raise MalformedInput(f"unknown symbol {symbol!r}") from None

    def bit(self, symbol: str) -> int:
        return 1 << self.position(symbol)

    def bits(self, symbols: Iterable[str]) -> int:
        index = self._index  # type: ignore[attr-defined]
        out = 0
        for sym in symbols:
            try:
                out |= 1 << index[sym]
            except (KeyError, TypeError):
                raise MalformedInput(f"unknown symbol {sym!r}") from None
        return out

    def names(self, bits: int) -> tuple[str, ...]:
        if bits & ~self.full_mask:
            raise MalformedInput("bitset refers to symbols outside the alphabet")
        return tuple(self.symbols[i] for i in bit_indices(bits))


def transition_alphabet(states: Sequence, letters: Alphabet) -> Alphabet:
    """One output symbol "state:letter" per transition of a table; a table
    with more than an alphabet holds is too large (ScaleGuard), not malformed."""
    if (count := len(states) * len(letters)) > MAX_ALPHABET:
        raise ScaleGuard(f"{len(states)} states × {len(letters)} letters = {count}"
                         f" transitions, one output symbol each, limit {MAX_ALPHABET}")
    return Alphabet(tuple(f"{q}:{x}" for q in states for x in letters.symbols))


@dataclass(frozen=True)
class MullerCondition:
    """Explicit family of accepting colour sets over a finite alphabet."""

    alphabet: Alphabet
    accepting: frozenset[int]

    def __post_init__(self) -> None:
        full = self.alphabet.full_mask
        for bits in self.accepting:
            if bits == 0:
                raise MalformedInput("accepting family must not contain the empty set")
            if bits & ~full:
                raise MalformedInput("accepting set uses symbols outside the alphabet")
        object.__setattr__(self, "_children", {})

    @classmethod
    def make(cls, symbols: Iterable[str],
             accepting_sets: Iterable[Iterable[str]]) -> "MullerCondition":
        alphabet = symbols if isinstance(symbols, Alphabet) else Alphabet(tuple(symbols))
        family = set()
        for group in accepting_sets:
            bits = alphabet.bits(group)
            if bits:  # the empty set can never be produced infinitely often
                family.add(bits)
        return cls(alphabet, frozenset(family))

    def admits(self, bits: int) -> bool:
        if bits <= 0:
            raise PreconditionViolation("membership query on an empty colour set")
        if bits & ~self.alphabet.full_mask:
            raise MalformedInput("colour set uses symbols outside the alphabet")
        return bits in self.accepting

    def children(self, label: int) -> tuple[int, ...]:
        """label's children in the Zielonka tree, worked out once per label."""
        if label not in (memo := self._children):  # type: ignore[attr-defined]
            memo[label] = tuple(zielonka_children(label, self.accepting.__contains__))
        return memo[label]


def complement_condition(cond: MullerCondition) -> MullerCondition:
    """Family complement over the non-empty subsets of the alphabet."""
    full = cond.alphabet.full_mask
    rest = frozenset(s for s in submasks(full) if s not in cond.accepting)
    return MullerCondition(cond.alphabet, rest)


@dataclass(frozen=True)
class MullerAcceptance:
    condition: MullerCondition
    kind = "muller"


@dataclass(frozen=True)
class ParityAcceptance:
    """One priority per output symbol; a colour set wins if its top priority is even."""

    priorities: tuple[int, ...]
    kind = "parity"

    def __post_init__(self) -> None:
        if not self.priorities:
            raise MalformedInput("parity acceptance needs at least one priority")
        for p in self.priorities:
            if not is_integer(p) or p < 0:
                raise MalformedInput(f"priority {p!r} must be a non-negative integer")


@dataclass(frozen=True)
class RabinAcceptance:
    """Pairs of colour bitsets; a set wins if it meets some pair's first
    component and avoids that pair's second component."""

    pairs: tuple[tuple[int, int], ...]
    kind = "rabin"


@dataclass(frozen=True)
class StreettAcceptance:
    """Pairs of colour bitsets; a set wins if for every pair, meeting the
    first component implies meeting the second."""

    pairs: tuple[tuple[int, int], ...]
    kind = "streett"


@dataclass(frozen=True)
class GenBuchiAcceptance:
    """A set wins if it meets every listed bitset (an empty member is unsatisfiable)."""

    sets: tuple[int, ...]
    kind = "genbuchi"


@dataclass(frozen=True)
class GenCoBuchiAcceptance:
    """A set wins if it avoids some listed bitset entirely."""

    sets: tuple[int, ...]
    kind = "gencobuchi"


Acceptance = Union[MullerAcceptance, ParityAcceptance, RabinAcceptance,
                   StreettAcceptance, GenBuchiAcceptance, GenCoBuchiAcceptance]


def accepting_colour_set(acceptance: Acceptance, bits: int) -> bool:
    """Decide whether a non-empty colour bitset satisfies the acceptance."""
    if bits <= 0:
        raise PreconditionViolation("acceptance query on an empty colour set")
    kind = acceptance.kind
    if kind == "muller":
        return acceptance.condition.admits(bits)
    if kind == "parity":
        if bits >> len(acceptance.priorities):
            raise MalformedInput("colour set uses symbols outside the alphabet")
        return max(acceptance.priorities[i] for i in bit_indices(bits)) % 2 == 0
    if kind == "rabin":
        return any(bits & first and not bits & second
                   for first, second in acceptance.pairs)
    if kind == "streett":
        return all(not bits & first or bits & second
                   for first, second in acceptance.pairs)
    if kind == "genbuchi":
        return all(bits & s for s in acceptance.sets)
    if kind == "gencobuchi":
        return any(not bits & s for s in acceptance.sets)
    raise UnsupportedOperation(f"unknown acceptance kind {kind!r}")


def dualise(acceptance: Acceptance) -> Acceptance:
    """Swap an acceptance with its complement-language counterpart.

    Rabin pairs become the same pairs read as Streett and conversely; a
    conjunction of met sets becomes a disjunction of avoided sets and
    conversely.  Applying the function twice returns the original value.
    """
    kind = acceptance.kind
    if kind == "rabin":
        return StreettAcceptance(acceptance.pairs)
    if kind == "streett":
        return RabinAcceptance(acceptance.pairs)
    if kind == "genbuchi":
        return GenCoBuchiAcceptance(acceptance.sets)
    if kind == "gencobuchi":
        return GenBuchiAcceptance(acceptance.sets)
    raise UnsupportedOperation(f"no dual form implemented for kind {kind!r}")


@dataclass(frozen=True)
class Automaton:
    """Deterministic complete automaton with one output colour per transition.

    delta[q][a] is a (next_state, output_position) pair; rows are indexed by
    input alphabet position.  Instances built through build_automaton are in
    canonical form: states are numbered in breadth-first discovery order from
    the initial state and unreachable states are dropped.
    """

    n_states: int
    initial: int
    input_alphabet: Alphabet
    output_alphabet: Alphabet
    delta: tuple[tuple[tuple[int, int], ...], ...]
    acceptance: Acceptance

    def __post_init__(self) -> None:
        if self.n_states <= 0:
            raise MalformedInput("automaton needs at least one state")
        if not 0 <= self.initial < self.n_states:
            raise MalformedInput("initial state out of range")
        if len(self.delta) != self.n_states:
            raise MalformedInput("transition table must have one row per state")
        width = len(self.input_alphabet)
        n_out = len(self.output_alphabet)
        for row in self.delta:
            if len(row) != width:
                raise MalformedInput("transition row width must match the input alphabet")
            for target, colour in row:
                if not 0 <= target < self.n_states:
                    raise MalformedInput("transition target out of range")
                if not 0 <= colour < n_out:
                    raise MalformedInput("transition colour out of range")

    def successor(self, state: int, symbol: str) -> tuple[int, int]:
        return self.delta[state][self.input_alphabet.position(symbol)]

    def edges(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield (state, input_position, target, output_position) for every transition."""
        for q, row in enumerate(self.delta):
            for a, (target, colour) in enumerate(row):
                yield q, a, target, colour

    def used_output_bits(self) -> int:
        bits = 0
        for row in self.delta:
            for _, colour in row:
                bits |= 1 << colour
        return bits


def build_automaton(*, initial: int,
                    transitions: Mapping[tuple[int, str], tuple[int, str]],
                    input_symbols: Iterable[str],
                    output_symbols: Iterable[str],
                    acceptance: Acceptance) -> Automaton:
    """Assemble an automaton and normalise it.

    transitions maps (state, input symbol) to (state, output symbol) and must
    be complete on every state reachable from the initial one.  Reachable
    states are renumbered in breadth-first discovery order, input symbols
    taken in alphabet order, and unreachable states are discarded.
    """
    inp = input_symbols if isinstance(input_symbols, Alphabet) else Alphabet(tuple(input_symbols))
    out = output_symbols if isinstance(output_symbols, Alphabet) else Alphabet(tuple(output_symbols))
    order: dict[int, int] = {initial: 0}
    queue = [initial]
    rows: list[tuple[tuple[int, int], ...]] = []
    for state in queue:  # queue grows as states are found
        row: list[tuple[int, int]] = []
        for sym in inp.symbols:
            try:
                target, colour = transitions[(state, sym)]
            except KeyError:
                raise MalformedInput(
                    f"missing transition from state {state} on {sym!r}") from None
            if target not in order:
                order[target] = len(order)
                queue.append(target)
            row.append((order[target], out.position(colour)))
        rows.append(row)
    # rows were produced in discovery order, so the table is already canonical
    return Automaton(len(rows), 0, inp, out,
                     tuple(tuple(row) for row in rows), acceptance)


def strongly_connected_components(
        vertices: Iterable[int],
        edges: Sequence[tuple],
) -> list[tuple[tuple[int, ...], tuple[tuple, ...]]]:
    """Tarjan strongly connected components of a directed multigraph.

    edges are (src, dst, ...) tuples; an edge with an endpoint outside
    vertices is ignored.  Returns a list of (sorted vertex tuple, internal
    edge tuple) pairs ordered by smallest vertex; internal edges keep their
    given order.
    """
    verts = sorted(set(vertices))
    n = len(verts)
    pos = {v: i for i, v in enumerate(verts)}  # dense index of each vertex
    succ: list[list[int]] = [[] for _ in verts]
    ends = [(pos.get(e[0]), pos.get(e[1])) for e in edges]
    for i, j in ends:
        if i is not None and j is not None:
            succ[i].append(j)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # a visited vertex is on the stack until it gets one
    stack: list[int] = []
    counter = n_comps = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]  # iterative Tarjan
        while work:
            v, children = work[-1]
            for w in children:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = n_comps
                        if w == v:
                            break
                    n_comps += 1
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    # renumber components by smallest vertex; members come out sorted
    rank = [-1] * n_comps
    members: list[list[int]] = []
    for i, c in enumerate(comp):
        if rank[c] < 0:
            rank[c] = len(members)
            members.append([])
        members[rank[c]].append(verts[i])
    internal: list[list[tuple]] = [[] for _ in members]
    for e, (i, j) in zip(edges, ends):
        if i is not None and j is not None and comp[i] == comp[j]:
            internal[rank[comp[i]]].append(e)
    return [(tuple(m), tuple(inner)) for m, inner in zip(members, internal)]


def _cycle_covers(edges: Sequence[tuple[int, int, int]]
                  ) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every strongly connected component of every label restriction of a
    graph, once each, as (sorted vertex tuple, cover).

    edges are (src, dst, label) with label a bitset.  A restriction drops the
    edges whose label meets some set of bits; silent edges (label 0) are
    never dropped.  A component's cover is the union of its internal edges'
    labels.  Each component with an internal edge that is strongly connected
    in the restriction to the labels inside its own cover is yielded, so the
    covers at a vertex are exactly the label sets of closed walks through it.

    Emerson-Lei refinement, with no memo: a component is split again once per
    free bit, where the i-th child drops that bit and must keep the free bits
    before it, so no cover is reached twice.  A child whose kept edges'
    labels do not hold all its required bits is not split at all: every
    component's cover lies inside that union.  The search is depth first:
    top-level components come in order of smallest vertex, each with all
    covers inside it before the next, and a component comes before the
    covers inside it, so a consumer may stop at the first cover it rejects.
    Only muller_equivalent, minimize_genbuchi's self-check and
    realizable_cycle_sets need every cover; the other cycle questions,
    Rabin pair synthesis among them, walk alternating_children.
    """
    def split(edges, vertices, need):
        found = []
        for comp, internal in strongly_connected_components(vertices, edges):
            cover = 0
            for e in internal:
                cover |= e[2]
            if internal and not need & ~cover:
                found.append((comp, internal, cover, need))
        return found

    ends = {v for e in edges for v in e[:2]}
    stack = split(edges, ends, 0)[::-1]
    while stack:
        comp, internal, cover, need = stack.pop()
        yield comp, cover
        children = []
        free = cover & ~need
        while free:
            bit = free & -free
            free ^= bit
            kept = [e for e in internal if not e[2] & bit]
            if not need & ~reduce(or_, (e[2] for e in kept), 0):
                children += split(kept, comp, need)
            need |= bit
        stack += reversed(children)


def edge_component(out: list[list[tuple[int, int]]], src: int, dst: int,
                    forbidden: int, within: set[int] | None = None
                    ) -> tuple[set[int], int]:
    """Strongly connected component of the edge src -> dst over the edges
    whose colour bits avoid forbidden (silent edges always count), among the
    nodes in within when given, and the colour bits inside it; (empty set, 0)
    when the edge lies on no such cycle."""
    reach = {dst}
    stack = [dst]
    pred: dict[int, list[int]] = {}
    while stack:
        u = stack.pop()
        for w, bits in out[u]:
            if bits & forbidden or (within is not None and w not in within):
                continue
            pred.setdefault(w, []).append(u)
            if w not in reach:
                reach.add(w)
                stack.append(w)
    if src not in reach:
        return set(), 0
    comp = {src}  # grows to the nodes of reach that reach src
    stack = [src]
    while stack:
        for u in pred.get(stack.pop(), ()):
            if u not in comp:
                comp.add(u)
                stack.append(u)
    cover = 0
    for u in comp:
        for w, bits in out[u]:
            if w in comp and not bits & forbidden:
                cover |= bits
    return comp, cover


def cycles_through(out: list[list[tuple[int, int]]], src: int, dst: int,
                   candidates: Iterable[int]) -> Iterator[tuple[set[int], int]]:
    """The colour bitsets among candidates that some cycle through the edge
    src -> dst produces exactly, each with the nodes such cycles can visit.

    A cycle through the edge produces exactly the set C when the edge's
    component over the colours of C has exactly those colours; that
    component lies inside the edge's component over all colours.
    """
    within, used = edge_component(out, src, dst, 0)
    for colours in candidates if within else ():
        if colours & ~used:
            continue
        comp, cover = edge_component(out, src, dst, ~colours, within)
        if cover == colours:
            yield comp, colours


def realizable_cycle_sets(aut: Automaton, state: int, *, over: str = "output") -> frozenset[int]:
    """All colour bitsets realizable as cycles through the given state: the
    colour sets of the strongly connected edge sets through it.

    over selects whether edge colours are taken from the output colouring
    (default) or from the input symbols.
    """
    if not 0 <= state < aut.n_states:
        raise MalformedInput("state out of range")
    if over not in ("output", "input"):
        raise MalformedInput("over must be 'output' or 'input'")
    edges = [(q, target, 1 << (colour if over == "output" else a))
             for q, a, target, colour in aut.edges()]
    if len(colours := {bit for _, _, bit in edges}) > 20:
        raise ScaleGuard(f"{len(colours)} distinct colours, limit 20")
    return frozenset(cover for comp, cover in _cycle_covers(edges) if state in comp)


@dataclass(frozen=True)
class PeriodicWord:
    """An ultimately periodic word: finite prefix followed by a repeated block."""

    prefix: tuple[str, ...]
    period: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.period:
            raise MalformedInput("periodic word needs a non-empty period")


def accepts_up_word(aut: Automaton, word: PeriodicWord) -> bool:
    """Run the automaton on prefix . period^infinity and test the acceptance.

    This is the reference language oracle: it finds the entry point of the
    lasso the run settles into, collects the output colours produced along
    that loop, and evaluates the acceptance on them.
    """
    state = aut.initial
    for sym in word.prefix:
        state, _ = aut.successor(state, sym)
    # iterate the period until the state at the start of a block repeats
    seen = {state: 0}
    states_at_block = [state]
    while True:
        for sym in word.period:
            state, _ = aut.successor(state, sym)
        if state in seen:
            loop_start = seen[state]
            break
        seen[state] = len(states_at_block)
        states_at_block.append(state)
    colours = 0
    state = states_at_block[loop_start]
    for _ in range(loop_start, len(states_at_block)):
        for sym in word.period:
            state, colour = aut.successor(state, sym)
            colours |= 1 << colour
    return accepting_colour_set(aut.acceptance, colours)


def max_inclusion(family: Iterable[int]) -> list[int]:
    """Inclusion-maximal bitsets of a family, ascending, duplicates removed."""
    # largest first: a set inside another member lies inside a kept one
    kept: list[int] = []
    for s in sorted(set(family), key=int.bit_count, reverse=True):
        if not any(s & ~t == 0 for t in kept):
            kept.append(s)
    return sorted(kept)


def zielonka_children(label: int, accepts: Callable[[int], bool]) -> list[int]:
    """Largest non-empty strict subsets of label on the other side of accepts
    from label, ascending: label's children in the Zielonka tree.

    Every set between such a child and label is on label's side, so each
    child is met by descending from label through sets on its side, one bit
    at a time (Emerson-Lei need bits, so no set is met twice).
    """
    side = accepts(label)
    found, stack = [], [(label, 0)]
    while stack:
        bits, need = stack.pop()
        free = bits & ~need
        while free:
            bit = free & -free
            free ^= bit
            sub = bits ^ bit
            if sub and accepts(sub) != side:
                found.append(sub)
            elif sub:
                stack.append((sub, need))
            need |= bit
    return max_inclusion(found)


def subcycles(edges: Sequence[tuple], within: int
              ) -> Iterator[tuple[int, int, tuple[tuple, ...]]]:
    """Strongly connected components with an internal edge, smallest vertex
    first, of the edges whose label lies within the given bits (-1: all),
    as (vertex bitset, cover, internal edges).  edges are (src, dst, label
    bitset, ...); silent edges (label 0) always count, and the cover is the
    union of the internal labels."""
    kept = [e for e in edges if not e[2] & ~within]
    for comp, inner in strongly_connected_components(
            {v for e in kept for v in e[:2]}, kept):
        if inner:
            yield sum(1 << v for v in comp), reduce(or_, (e[2] for e in inner)), inner


def alternating_children(internal: Sequence[tuple], cover: int,
                         accepts: Callable[[int], bool],
                         split: Callable[[int], Sequence[int]]
                         ) -> list[tuple[int, int, tuple[tuple, ...]]]:
    """Children of a node of the alternating cycle decomposition
    (Casares-Colcombet-Fijalkow 2021): (vertex bitset, cover, edges) of the
    largest subcycles of the strongly connected edges internal, with labels
    making up cover, on the other side of accepts, by ascending cover.

    split(colours) gives the largest subsets of colours on the other side
    (zielonka_children).  Each child lies in a Zielonka child of the cover,
    inside a component of the edges coloured there, or if that component is
    on the node's side, inside one of its own."""
    side = accepts(cover)
    found: dict[tuple[int, int], tuple] = {}
    work = [(internal, cover)]
    while work:
        edges_in, colours = work.pop()
        for label in split(colours):
            for verts, sub, inner in subcycles(edges_in, label):
                if (verts, sub) not in found:
                    found[verts, sub] = inner
                    if accepts(sub) == side:
                        work.append((inner, sub))
    # a subcycle holds all of the node's edges among its vertices with
    # labels in its cover, so inclusion compares vertices and covers
    other = sorted((sub, verts) for verts, sub in found if accepts(sub) != side)
    return [(verts, sub, found[verts, sub]) for sub, verts in other
            if not any((v, c) != (verts, sub) and not verts & ~v and not sub & ~c
                       for c, v in other)]


# ---------------------------------------------------------------------------
# JSON encoding.  All emitters produce deterministic key and element orders so
# repeated runs are byte-identical.

def condition_to_json(cond: MullerCondition) -> dict:
    return {
        "alphabet": list(cond.alphabet.symbols),
        "accepting": [list(cond.alphabet.names(bits)) for bits in sorted(cond.accepting)],
    }


def condition_from_json(data: object) -> MullerCondition:
    if not isinstance(data, dict):
        raise MalformedInput("condition must be a JSON object")
    alphabet = data.get("alphabet")
    accepting = data.get("accepting")
    if not isinstance(alphabet, list) or not all(isinstance(s, str) for s in alphabet):
        raise MalformedInput("condition field 'alphabet' must be a list of strings")
    if not isinstance(accepting, list) or not all(isinstance(g, list) for g in accepting):
        raise MalformedInput("condition field 'accepting' must be a list of lists")
    return MullerCondition.make(alphabet, accepting)


def acceptance_to_json(acceptance: Acceptance, output_alphabet: Alphabet) -> dict:
    kind = acceptance.kind
    if kind == "muller":
        return {"kind": "muller", **condition_to_json(acceptance.condition)}
    if kind == "parity":
        return {"kind": "parity",
                "priorities": {sym: acceptance.priorities[i]
                               for i, sym in enumerate(output_alphabet.symbols)}}
    if kind in ("rabin", "streett"):
        return {"kind": kind,
                "pairs": [[list(output_alphabet.names(first)),
                           list(output_alphabet.names(second))]
                          for first, second in acceptance.pairs]}
    if kind in ("genbuchi", "gencobuchi"):
        return {"kind": kind,
                "sets": [list(output_alphabet.names(s)) for s in acceptance.sets]}
    raise UnsupportedOperation(f"unknown acceptance kind {kind!r}")


def acceptance_from_json(data: object, output_alphabet: Alphabet) -> Acceptance:
    if not isinstance(data, dict) or "kind" not in data:
        raise MalformedInput("acceptance must be an object with a 'kind' field")
    kind = data["kind"]
    if kind == "muller":
        return MullerAcceptance(condition_from_json(
            {"alphabet": data.get("alphabet"), "accepting": data.get("accepting")}))
    if kind == "parity":
        prios = data.get("priorities")
        if not isinstance(prios, dict):
            raise MalformedInput("parity acceptance needs a 'priorities' object")
        try:
            table = tuple(prios[sym] for sym in output_alphabet.symbols)
        except KeyError as missing:
            raise MalformedInput(f"missing priority for symbol {missing}") from None
        return ParityAcceptance(table)
    if kind in ("rabin", "streett"):
        pairs = data.get("pairs")
        if not isinstance(pairs, list):
            raise MalformedInput(f"{kind} acceptance needs a 'pairs' list")
        parsed = []
        for pair in pairs:
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(part, list) for part in pair)):
                raise MalformedInput("each pair must be a two-element list of lists")
            parsed.append((output_alphabet.bits(pair[0]), output_alphabet.bits(pair[1])))
        cls = RabinAcceptance if kind == "rabin" else StreettAcceptance
        return cls(tuple(parsed))
    if kind in ("genbuchi", "gencobuchi"):
        sets = data.get("sets")
        if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
            raise MalformedInput(f"{kind} acceptance needs a 'sets' list of lists")
        cls = GenBuchiAcceptance if kind == "genbuchi" else GenCoBuchiAcceptance
        return cls(tuple(output_alphabet.bits(s) for s in sets))
    raise MalformedInput(f"unknown acceptance kind {kind!r}")


def automaton_to_json(aut: Automaton) -> dict:
    return {
        "states": aut.n_states,
        "initial": aut.initial,
        "input": list(aut.input_alphabet.symbols),
        "output": list(aut.output_alphabet.symbols),
        "delta": [[q, aut.input_alphabet.symbols[a],
                   target, aut.output_alphabet.symbols[colour]]
                  for q, a, target, colour in aut.edges()],
        "acceptance": acceptance_to_json(aut.acceptance, aut.output_alphabet),
    }


def automaton_from_json(data: object) -> Automaton:
    if not isinstance(data, dict):
        raise MalformedInput("automaton must be a JSON object")
    for field_name in ("states", "initial", "input", "output", "delta", "acceptance"):
        if field_name not in data:
            raise MalformedInput(f"automaton is missing field '{field_name}'")
    n = data["states"]
    initial = data["initial"]
    if not is_integer(n) or not is_integer(initial):
        raise MalformedInput("fields 'states' and 'initial' must be integers")
    if not isinstance(data["input"], list) or not isinstance(data["output"], list):
        raise MalformedInput("fields 'input' and 'output' must be lists of symbols")
    inp, out = Alphabet(tuple(data["input"])), Alphabet(tuple(data["output"]))
    transitions: dict[tuple[int, str], tuple[int, str]] = {}
    if not isinstance(data["delta"], list):
        raise MalformedInput("field 'delta' must be a list")
    for entry in data["delta"]:
        if not isinstance(entry, list) or len(entry) != 4:
            raise MalformedInput("each delta entry must be [state, input, next, output]")
        q, sym, target, colour = entry
        if not is_integer(q) or not is_integer(target):
            raise MalformedInput("delta states must be integers")
        if not 0 <= q < n or not 0 <= target < n:
            raise MalformedInput("delta state out of range")
        inp.position(sym)  # before hashing: a JSON list is no symbol
        if (q, sym) in transitions:
            raise MalformedInput(f"duplicate transition from state {q} on {sym!r}")
        out.position(colour)
        transitions[(q, sym)] = (target, colour)
    acceptance = acceptance_from_json(data["acceptance"], out)
    return build_automaton(initial=initial, transitions=transitions,
                           input_symbols=inp, output_symbols=out,
                           acceptance=acceptance)
