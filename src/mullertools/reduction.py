"""Recovering the alternating-subset tree from a deterministic parity
automaton, and minimisation of parity and generalised Buchi automata."""
from __future__ import annotations

from functools import cache, partial, reduce
from operator import or_

from .core import (MAX_COLOUR_BITS, Alphabet, Automaton, GenBuchiAcceptance,
                   PreconditionViolation, ScaleGuard, UnsupportedOperation,
                   _cycle_covers, accepting_colour_set, alternating_children,
                   bit_indices, max_inclusion, strongly_connected_components, subcycles)
from .zielonka import ZielonkaTree, parity_automaton_from_tree


def _letters(edges) -> int:
    return reduce(or_, (1 << e[3] for e in edges), 0)


def _closed_part(edges, letters: int) -> tuple[tuple, ...]:
    """Edges of the closed strongly connected part with the smallest vertex
    among the edges over the given letters.

    edges are (src, dst, colour bit, letter position) tuples with one edge
    per vertex and letter, so a part is closed when it holds every edge of
    its vertices, and then it carries all the letters.
    """
    sub = [e for e in edges if 1 << e[3] & letters]
    for comp, inner in strongly_connected_components({v for e in sub for v in e[:2]}, sub):
        if len(inner) == len(comp) * letters.bit_count():
            return inner
    raise PreconditionViolation("restriction has no closed strongly connected part")


def zielonka_tree_from_parity(aut: Automaton) -> ZielonkaTree:
    """Alternating-subset tree of the language of a parity automaton.

    Works on one closed strongly connected component of the automaton graph
    (the one containing the smallest state id); the language restricted to
    infinite behaviours lives entirely inside such components.  A node's
    children are the largest letter sets of its alternating_children, the
    largest subcycles on the other side of the acceptance, each grown to the
    closed part over its letters.  A parity cover has one Zielonka child:
    its colours up to the top priority of the other parity.
    """
    if aut.acceptance.kind != "parity":
        raise UnsupportedOperation("this operation needs a parity automaton")
    prio = aut.acceptance.priorities
    alphabet = aut.input_alphabet
    accepts = cache(partial(accepting_colour_set, aut.acceptance))

    @cache
    def split(colours: int) -> list[int]:
        top = max(prio[i] for i in bit_indices(colours))
        other = [prio[i] for i in bit_indices(colours) if (prio[i] - top) % 2]
        if not other:
            return []
        return [sum(1 << i for i in bit_indices(colours) if prio[i] <= max(other))]

    def build(edges) -> ZielonkaTree:
        cover, label = reduce(or_, (e[2] for e in edges)), _letters(edges)
        kids = []
        for letter_bits in max_inclusion(
                _letters(inner) for _, _, inner in
                alternating_children(edges, cover, accepts, split)):
            if letter_bits == label:
                # two cycles over the same letters with different verdicts
                raise PreconditionViolation(
                    "not a Muller condition over the input letters")
            kids.append(build(_closed_part(edges, letter_bits)))
        return ZielonkaTree(alphabet, label, accepts(cover), tuple(kids))

    edges = [(q, target, 1 << colour, a) for q, a, target, colour in aut.edges()]
    return build(_closed_part(edges, alphabet.full_mask))


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
    acceptances judge differently raises PreconditionViolation.  Each side
    of those labels may carry at most MAX_COLOUR_BITS bits.
    """
    if aut.acceptance.kind != "genbuchi":
        raise UnsupportedOperation("this operation needs a generalised Buchi automaton")
    alphabet = aut.input_alphabet
    n_letters = len(alphabet)
    for side, count, kind in (("input", n_letters, "letters"),
                              ("output", aut.used_output_bits().bit_count(), "colours")):
        if count > MAX_COLOUR_BITS:
            raise ScaleGuard(f"{side} side uses {count} {kind}, limit {MAX_COLOUR_BITS}")
    full = alphabet.full_mask
    rejecting: list[int] = []
    for needed in aut.acceptance.sets:
        kept = [(q, target, 1 << a) for q, a, target, colour in aut.edges()
                if not (1 << colour) & needed]
        rejecting += [letters for _, letters, _ in subcycles(kept, -1)]
    acceptance = GenBuchiAcceptance(tuple(sorted(full & ~bits for bits in max_inclusion(rejecting))))
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
    "max_inclusion", "minimize_genbuchi", "minimize_parity",
    "zielonka_tree_from_parity",
]
