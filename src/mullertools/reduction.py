"""Recovering the alternating-subset tree from a deterministic parity
automaton, and minimisation of parity and generalised Buchi automata."""
from __future__ import annotations

from .core import (Alphabet, Automaton, GenBuchiAcceptance, MalformedInput,
                   PreconditionViolation, UnsupportedOperation, _cycle_covers,
                   accepting_colour_set, ergodic_components, max_inclusion,
                   strongly_connected_components)
from .zielonka import ZielonkaTree, parity_automaton_from_tree

# Edges below are (src, dst, input position, priority) tuples; the generic
# component helpers only look at the first two fields.
Edge = tuple[int, int, int, int]


def _priorities(aut: Automaton) -> tuple[int, ...]:
    if aut.acceptance.kind != "parity":
        raise UnsupportedOperation("this operation needs a parity automaton")
    return aut.acceptance.priorities


def _letters(edges: list[Edge]) -> int:
    bits = 0
    for _, _, a, _ in edges:
        bits |= 1 << a
    return bits


def _max_priority(edges: list[Edge]) -> int:
    return max(p for _, _, _, p in edges)


def _vertices(edges: list[Edge]) -> set[int]:
    verts: set[int] = set()
    for src, dst, _, _ in edges:
        verts.add(src)
        verts.add(dst)
    return verts


def alternating_sets(edges: list[Edge]) -> list[int]:
    """Inclusion-maximal letter bitsets of subgraphs whose top priority has
    the opposite parity of the top priority of the given edge set.

    Removes the top-priority edges, decomposes what remains into strongly
    connected parts, records the letters of parts that already alternate and
    digs further into parts that do not.
    """
    if not edges:
        return []
    top = _max_priority(edges)
    lower = [e for e in edges if e[3] < top]
    collected: list[int] = []
    for _, internal in strongly_connected_components(_vertices(lower), lower):
        if not internal:
            continue
        part = list(internal)
        if _max_priority(part) % 2 != top % 2:
            collected.append(_letters(part))
        else:
            collected.extend(alternating_sets(part))
    return max_inclusion(collected)


def complete_scc(letter_bits: int, edges: list[Edge]) -> list[Edge]:
    """Restrict to the given input letters and return one closed strongly
    connected part, the one containing the smallest state id.

    The input edge set must be complete over its letters (every vertex
    carries one edge per letter), which makes every closed part complete over
    the requested letters as well.
    """
    sub = [e for e in edges if (1 << e[2]) & letter_bits]
    closed = [c for c in ergodic_components(_vertices(sub), sub) if c[1]]
    if not closed:
        raise PreconditionViolation("restriction has no closed strongly connected part")
    comp_vertices, internal = closed[0]  # components are ordered by smallest vertex
    part = list(internal)
    if _letters(part) != letter_bits:
        raise PreconditionViolation(
            "closed part does not carry all requested letters; "
            "the edge set was not complete over its letters")
    return part


def _ergodic_edges(aut: Automaton) -> list[Edge]:
    prio = _priorities(aut)
    edges: list[Edge] = [(q, target, a, prio[colour])
                         for q, a, target, colour in aut.edges()]
    closed = [c for c in ergodic_components(range(aut.n_states), edges) if c[1]]
    if not closed:
        raise PreconditionViolation("automaton graph has no closed strongly connected part")
    return list(closed[0][1])


def zielonka_tree_from_parity(aut: Automaton) -> ZielonkaTree:
    """Alternating-subset tree of the language of a parity automaton.

    Works on one closed strongly connected component of the automaton graph
    (the one containing the smallest state id); the language restricted to
    infinite behaviours lives entirely inside such components.
    """
    alphabet = aut.input_alphabet

    def build(edges: list[Edge]) -> ZielonkaTree:
        accepting = _max_priority(edges) % 2 == 0
        label = _letters(edges)
        kids = []
        for letter_bits in sorted(alternating_sets(edges)):
            if letter_bits == label:
                # two cycles over the same letters with different verdicts
                raise PreconditionViolation(
                    "not a Muller condition over the input letters")
            kids.append(build(complete_scc(letter_bits, edges)))
        return ZielonkaTree(alphabet, label, accepting, tuple(kids))

    root = build(_ergodic_edges(aut))
    if root.label != alphabet.full_mask:
        raise MalformedInput("automaton is not complete over its input alphabet")
    return root


def minimize_parity(aut: Automaton) -> Automaton:
    """Parity automaton with the fewest states for the same language.

    Rebuilds the alternating-subset tree of the language and lays a fresh
    automaton over its leaves, so the result only depends on the language.
    """
    return parity_automaton_from_tree(zielonka_tree_from_parity(aut))


def minimize_genbuchi(aut: Automaton) -> Automaton:
    """One-state generalised Buchi automaton for the same language.

    For each acceptance set the cycles avoiding it are rejecting; the
    strongly connected parts of the corresponding restriction give the
    inclusion-maximal rejecting input sets, whose complements are the new
    acceptance sets.  That is only right when the language is a conjunction
    of conditions of the form 'this input letter set is met infinitely
    often', so the result is checked against every cycle of the input, each
    labelled with its letters and its colours, and any cover the two
    acceptances judge differently raises PreconditionViolation.
    """
    if aut.acceptance.kind != "genbuchi":
        raise UnsupportedOperation("this operation needs a generalised Buchi automaton")
    alphabet = aut.input_alphabet
    full = alphabet.full_mask
    rejecting: list[int] = []
    for needed in aut.acceptance.sets:
        kept = [(q, target, a) for q, a, target, colour in aut.edges()
                if not (1 << colour) & needed]
        for _, internal in strongly_connected_components(range(aut.n_states), kept):
            if not internal:
                continue
            letters = 0
            for _, _, a in internal:
                letters |= 1 << a
            rejecting.append(letters)
    acceptance = GenBuchiAcceptance(tuple(sorted(full & ~bits for bits in max_inclusion(rejecting))))
    n_letters = len(alphabet)
    labelled = [(q, target, 1 << a | 1 << (n_letters + colour))
                for q, a, target, colour in aut.edges()]
    for _, cover in _cycle_covers(labelled):
        if (accepting_colour_set(aut.acceptance, cover >> n_letters)
                != accepting_colour_set(acceptance, cover & full)):
            raise PreconditionViolation(
                "language is not a conjunction of input letter sets met"
                " infinitely often")
    row = tuple((0, a) for a in range(n_letters))
    return Automaton(1, 0, alphabet, Alphabet(alphabet.symbols), (row,), acceptance)


__all__ = [
    "alternating_sets", "complete_scc", "max_inclusion", "minimize_genbuchi",
    "minimize_parity", "zielonka_tree_from_parity",
]
