"""Recovering the alternating-subset tree from a deterministic parity
automaton, and minimisation of parity and generalised Buchi automata."""
from __future__ import annotations

from dataclasses import replace
from functools import cache, reduce
from operator import or_

# _closed_part walks the transition rows itself; strongly_connected_components
# stays importable here because perfbench/spans.py wraps it under this name
from .core import (Alphabet, Automaton, GenBuchiAcceptance, PreconditionViolation,
                   UnsupportedOperation, alternating_children, bit_indices, max_inclusion,
                   quotient, strongly_connected_components, subcycles)
from .zielonka import ZielonkaTree, parity_automaton_from_tree


def _letters(edges) -> int:
    return reduce(or_, (1 << e[3] for e in edges), 0)


def _closed_part(delta, states, letters: int) -> tuple[tuple, ...]:
    """Edges (q, target, colour bit, letter position) of the closed strongly
    connected part with the least state, over the given letters, among the
    states (ascending), which those letters never leave; by state, then
    letter.  delta[q][a] is a (target, colour) pair.

    One iterative Tarjan walk (Tarjan 1972) rooted at the states in order.
    A finished component is closed unless one of its states steps into a
    component finished before it; that flag travels up the walk's tree
    edges inside a component to its root.  Once the next root lies above
    the least state of the best closed component, no later component holds
    a smaller state, and the walk stops.
    """
    positions = list(bit_indices(letters))
    n = len(delta)  # the index given to a state once its component is finished
    index, low = [-1] * n, [0] * n
    leaks = bytearray(n)  # it, or a tree descendant in its component, steps out
    stack: list[int] = []
    best: list[int] = []
    counter = 0
    for root in states:
        if index[root] >= 0:
            continue
        if best and root > best[0]:
            break
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        row = delta[root]
        work = [(root, iter([row[a][0] for a in positions]))]
        while work:
            v, targets = work[-1]
            for w in targets:
                i = index[w]
                if i < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    row = delta[w]
                    work.append((w, iter([row[a][0] for a in positions])))
                    break
                if i < low[v]:
                    low[v] = i
                elif i == n:
                    leaks[v] = 1
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = n
                        comp.append(w)
                        if w == v:
                            break
                    if not leaks[v] and (not best or min(comp) < best[0]):
                        best = sorted(comp)
                if work:
                    u = work[-1][0]
                    if index[v] == n:
                        leaks[u] = 1
                    else:
                        leaks[u] |= leaks[v]
                        if low[v] < low[u]:
                            low[u] = low[v]
    if not best:
        raise PreconditionViolation("restriction has no closed strongly connected part")
    return tuple([(q, target, 1 << colour, a)
                  for q in best for a in positions for target, colour in [delta[q][a]]])


def zielonka_tree_from_parity(aut: Automaton) -> ZielonkaTree:
    """Alternating-subset tree of the language of a parity automaton.

    Works on one closed strongly connected component of the automaton graph
    (the one containing the smallest state id), merged to its quotient by
    priority; the language restricted to infinite behaviours lives entirely
    inside such components.  A node's children are the largest letter sets
    of its alternating_children, the largest subcycles on the other side of
    the acceptance, each grown to the closed part over its letters once; a
    parity cover has at most one Zielonka child (ParityAcceptance.children).
    """
    if aut.acceptance.kind != "parity":
        raise UnsupportedOperation("this operation needs a parity automaton")
    alphabet = aut.input_alphabet
    accepts, split = cache(aut.acceptance.accepts), cache(aut.acceptance.children)
    nodes: dict[int, ZielonkaTree] = {}

    def build(edges) -> ZielonkaTree:
        cover, label = reduce(or_, (e[2] for e in edges)), _letters(edges)
        kids, states = [], sorted({e[0] for e in edges})
        for letter_bits in max_inclusion(
                _letters(inner) for _, _, inner in
                alternating_children(edges, cover, accepts, split)):
            if letter_bits == label:
                # two cycles over the same letters with different verdicts
                raise PreconditionViolation(
                    "not a Muller condition over the input letters")
            if letter_bits not in nodes:
                nodes[letter_bits] = build(_closed_part(delta, states, letter_bits))
            kids.append(nodes[letter_bits])
        return ZielonkaTree(alphabet, label, accepts(cover), tuple(kids))

    least = _closed_part(aut.delta, range(aut.n_states), alphabet.full_mask)[0][0]
    # the closed part is strongly connected: it is all that its least state reaches
    delta = quotient(replace(aut, initial=least), aut.acceptance.priorities).delta
    return build([(q, target, 1 << colour, a) for q, row in enumerate(delta)
                  for a, (target, colour) in enumerate(row)])


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
    often'.  A cycle the input rejects lies in one of those parts, so the
    result rejects it too; the result is wrong exactly when a strongly
    connected part over the letters of a maximal rejecting set has colours
    meeting every acceptance set (Emerson-Lei 1987), and then
    PreconditionViolation is raised.
    """
    if aut.acceptance.kind != "genbuchi":
        raise UnsupportedOperation("this operation needs a generalised Buchi automaton")
    alphabet = aut.input_alphabet
    edges = [(q, target, 1 << a, 1 << colour) for q, a, target, colour in aut.edges()]
    rejecting: list[int] = []
    for needed in aut.acceptance.sets:
        kept = [e for e in edges if not e[3] & needed]
        rejecting += [letters for _, letters, _ in subcycles(kept, -1)]
    maximal = max_inclusion(rejecting)
    for letters in maximal:
        for _, _, inner in subcycles(edges, letters):
            if aut.acceptance.accepts(reduce(or_, (e[3] for e in inner))):
                raise PreconditionViolation(
                    "language is not a conjunction of input letter sets met"
                    " infinitely often")
    acceptance = GenBuchiAcceptance(tuple(sorted(alphabet.full_mask & ~bits for bits in maximal)))
    row = tuple((0, a) for a in range(len(alphabet)))
    return Automaton(1, 0, alphabet, Alphabet(alphabet.symbols), (row,), acceptance)


__all__ = [
    "max_inclusion", "minimize_genbuchi", "minimize_parity",
    "zielonka_tree_from_parity",
]
