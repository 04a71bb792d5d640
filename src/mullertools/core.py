"""Deterministic complete transition-based automata over coloured transitions.

States are integers, alphabets are ordered tuples of symbol names, and colour
sets are plain int bitsets indexed by alphabet position.  Acceptance only
depends on the set of colours produced infinitely often, so every semantic
question reduces to questions about cycles and their colour sets.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

MAX_ALPHABET = 64


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
        object.__setattr__(self, "_bit", {sym: 1 << i for sym, i in index.items()})

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
        return self.bitsets((symbols,))[0]

    def bitsets(self, groups: Iterable[Iterable[str]]) -> list[int]:
        """The bitset of each group of symbols, in order."""
        bit = self._bit  # type: ignore[attr-defined]
        out = []
        for group in groups:
            bits = 0
            for sym in group:
                try:
                    bits |= bit[sym]
                except (KeyError, TypeError):
                    raise MalformedInput(f"unknown symbol {sym!r}") from None
            out.append(bits)
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
        if 0 in self.accepting:
            raise MalformedInput("accepting family must not contain the empty set")
        if self.accepting and (min(self.accepting) < 0
                               or max(self.accepting) > self.alphabet.full_mask):
            raise MalformedInput("accepting set uses symbols outside the alphabet")
        object.__setattr__(self, "_children", {})

    @classmethod
    def make(cls, symbols: Iterable[str],
             accepting_sets: Iterable[Iterable[str]]) -> "MullerCondition":
        alphabet = symbols if isinstance(symbols, Alphabet) else Alphabet(tuple(symbols))
        # the empty set can never be produced infinitely often
        return cls(alphabet, frozenset(filter(None, alphabet.bitsets(accepting_sets))))

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
    """A Muller condition over the automaton's output alphabet, in its order."""

    condition: MullerCondition
    kind = "muller"

    def accepts(self, bits: int) -> bool:
        return bits in self.condition.accepting

    def children(self, bits: int) -> tuple[int, ...]:
        return self.condition.children(bits)


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

    def accepts(self, bits: int) -> bool:
        return max(self.priorities[i] for i in bit_indices(bits)) % 2 == 0

    def children(self, bits: int) -> tuple[int, ...]:
        """At most one: the colours up to the top priority of the other parity."""
        prio = self.priorities
        top = max(prio[i] for i in bit_indices(bits))
        below = max((prio[i] for i in bit_indices(bits) if (prio[i] - top) % 2), default=-1)
        return (sum(1 << i for i in bit_indices(bits) if prio[i] <= below),) if below >= 0 else ()


class _SubsetDescent:
    """Zielonka children by the subset descent of zielonka_children."""

    def children(self, bits: int) -> tuple[int, ...]:
        return tuple(zielonka_children(bits, self.accepts))  # type: ignore[attr-defined]


@dataclass(frozen=True)
class RabinAcceptance(_SubsetDescent):
    """Pairs of colour bitsets; a set wins if it meets some pair's first
    component and avoids that pair's second component."""

    pairs: tuple[tuple[int, int], ...]
    kind = "rabin"

    def accepts(self, bits: int) -> bool:
        return any(bits & first and not bits & second for first, second in self.pairs)


@dataclass(frozen=True)
class StreettAcceptance(_SubsetDescent):
    """Pairs of colour bitsets; a set wins if for every pair, meeting the
    first component implies meeting the second."""

    pairs: tuple[tuple[int, int], ...]
    kind = "streett"

    def accepts(self, bits: int) -> bool:
        return all(not bits & first or bits & second for first, second in self.pairs)


@dataclass(frozen=True)
class GenBuchiAcceptance(_SubsetDescent):
    """A set wins if it meets every listed bitset (an empty member is unsatisfiable)."""

    sets: tuple[int, ...]
    kind = "genbuchi"

    def accepts(self, bits: int) -> bool:
        return all(bits & s for s in self.sets)


@dataclass(frozen=True)
class GenCoBuchiAcceptance(_SubsetDescent):
    """A set wins if it avoids some listed bitset entirely."""

    sets: tuple[int, ...]
    kind = "gencobuchi"

    def accepts(self, bits: int) -> bool:
        return any(not bits & s for s in self.sets)


# Every kind answers accepts(bits), its verdict on a non-empty set of output
# positions, and children(bits), the set's children in the Zielonka tree; an
# Automaton checks that its acceptance fits its outputs, so neither checks bits.
Acceptance = Union[MullerAcceptance, ParityAcceptance, RabinAcceptance,
                   StreettAcceptance, GenBuchiAcceptance, GenCoBuchiAcceptance]


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
        kind = self.acceptance.kind
        if kind == "muller" and self.acceptance.condition.alphabet != self.output_alphabet:
            raise MalformedInput("a Muller acceptance must be over the output alphabet")
        if kind == "parity" and len(self.acceptance.priorities) != n_out:
            raise MalformedInput(f"parity acceptance has {len(self.acceptance.priorities)}"
                                 f" priorities for {n_out} output symbols")

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


def _canonical_rows(initial, table: Mapping, inp: Alphabet
                    ) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Rows of the states reachable from initial, renumbered in breadth-first
    discovery order.  table maps a state to its row, one (target, output
    position) per input position, None where a transition is missing."""
    order, queue, rows = {initial: 0}, [initial], []
    for state in queue:  # queue grows as states are found
        row = table.get(state) or (None,)
        if None in row:
            raise MalformedInput(f"missing transition from state {state}"
                                 f" on {inp.symbols[row.index(None)]!r}")
        for target, _ in row:
            if target not in order:
                order[target] = len(order)
                queue.append(target)
        rows.append(tuple([(order[target], colour) for target, colour in row]))
    return tuple(rows)


def build_automaton(*, initial: int,
                    transitions: Mapping[tuple[int, str], tuple[int, str]],
                    input_symbols: Iterable[str],
                    output_symbols: Iterable[str],
                    acceptance: Acceptance) -> Automaton:
    """Assemble an automaton and normalise it.

    transitions maps (state, input symbol) to (state, output symbol) and must
    be complete on every state reachable from the initial one; the output
    symbol of every entry must be in the output alphabet.  Reachable states
    are renumbered in breadth-first discovery order, input symbols taken in
    alphabet order, and unreachable states are discarded.
    """
    inp = input_symbols if isinstance(input_symbols, Alphabet) else Alphabet(tuple(input_symbols))
    out = output_symbols if isinstance(output_symbols, Alphabet) else Alphabet(tuple(output_symbols))
    table: dict = {}
    for (state, sym), (target, colour) in transitions.items():
        if sym in inp:
            row = table.setdefault(state, [None] * len(inp))
            row[inp.position(sym)] = (target, out.position(colour))
    rows = _canonical_rows(initial, table, inp)
    return Automaton(len(rows), 0, inp, out, rows, acceptance)


def quotient(aut: Automaton, outputs: Sequence) -> Automaton:
    """Merge the states from which every word produces the same sequence of
    outputs[colour], by Moore partition refinement (Moore 1956); a class
    keeps the colours of its least member.  A closed walk keeps its letters
    and its outputs, so every verdict read from closed walks stays the same.
    """
    block, count = [0] * aut.n_states, 0
    keys: dict[object, int] = {None: 0}  # the one starting block
    while len(keys) > count:  # each round refines the last, until none splits
        count, keys = len(keys), {}
        block = [keys.setdefault((block[q], tuple((block[t], outputs[c]) for t, c in row)),
                                 len(keys)) for q, row in enumerate(aut.delta)]
    # a dict keeps the last write, so the least member of a class writes last
    table = {block[q]: [(block[t], c) for t, c in aut.delta[q]]
             for q in reversed(range(aut.n_states))}
    rows = _canonical_rows(block[aut.initial], table, aut.input_alphabet)
    return Automaton(len(rows), 0, aut.input_alphabet, aut.output_alphabet, rows,
                     aut.acceptance)


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
    return aut.acceptance.accepts(colours)


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
    kept = edges if within == -1 else [e for e in edges if not e[2] & ~within]
    # a vertex on a cycle has an edge out along it, so sources suffice
    for comp, inner in strongly_connected_components({e[0] for e in kept}, kept):
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
    (the acceptance's children).  Each child lies in a Zielonka child of the
    cover, inside a component of the edges coloured there, or if that
    component is on the node's side, inside one of its own."""
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


def condition_from_json(data: object, alphabet: Alphabet | None = None) -> MullerCondition:
    """Given an alphabet, the condition must name its symbols and is read onto its order."""
    if not isinstance(data, dict):
        raise MalformedInput("condition must be a JSON object")
    symbols = data.get("alphabet")
    accepting = data.get("accepting")
    if not isinstance(symbols, list) or not all(map(isinstance, symbols, repeat(str))):
        raise MalformedInput("condition field 'alphabet' must be a list of strings")
    if not isinstance(accepting, list) or not all(map(isinstance, accepting, repeat(list))):
        raise MalformedInput("condition field 'accepting' must be a list of lists")
    own = Alphabet(tuple(symbols))
    if alphabet is not None and set(own) != set(alphabet):
        own.bitsets(accepting)  # an unknown symbol is named before the mismatch
        raise MalformedInput("Muller acceptance alphabet must name the output symbols")
    return MullerCondition.make(alphabet or own, accepting)


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
        return MullerAcceptance(condition_from_json(data, output_alphabet))
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
            parsed.append(tuple(output_alphabet.bitsets(pair)))
        cls = RabinAcceptance if kind == "rabin" else StreettAcceptance
        return cls(tuple(parsed))
    if kind in ("genbuchi", "gencobuchi"):
        sets = data.get("sets")
        if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
            raise MalformedInput(f"{kind} acceptance needs a 'sets' list of lists")
        cls = GenBuchiAcceptance if kind == "genbuchi" else GenCoBuchiAcceptance
        return cls(tuple(output_alphabet.bitsets(sets)))
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
    table: dict[int, list] = {}  # only the states that appear
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
        a = inp.position(sym)
        if (row := table.get(q)) is None:
            row = table[q] = [None] * len(inp)
        if row[a] is not None:
            raise MalformedInput(f"duplicate transition from state {q} on {sym!r}")
        row[a] = (target, out.position(colour))
    acceptance = acceptance_from_json(data["acceptance"], out)
    rows = _canonical_rows(initial, table, inp)
    return Automaton(len(rows), 0, inp, out, rows, acceptance)
