"""Tree recovery from parity automata and the two minimisers."""
import itertools
import random

import pytest

from mullertools.core import (Alphabet, Automaton, GenBuchiAcceptance,
                              MullerCondition, ParityAcceptance, PeriodicWord,
                              PreconditionViolation, UnsupportedOperation,
                              accepts_up_word)
from mullertools.reduction import (alternating_sets, minimize_genbuchi,
                                   minimize_parity, zielonka_tree_from_parity)
from mullertools.zielonka import (parity_automaton, trees_isomorphic,
                                  zielonka_tree)

from generators import (a_then_b, inflate, random_condition,
                        random_recognizable_genbuchi)


def at_least_two_of_three():
    alpha = Alphabet(("1", "2", "3"))
    return MullerCondition(alpha, frozenset(
        b for b in range(1, 8) if bin(b).count("1") >= 2))


def test_alternating_sets_frozen():
    aut = parity_automaton(at_least_two_of_three())
    prio = aut.acceptance.priorities
    edges = [(q, target, a, prio[colour]) for q, a, target, colour in aut.edges()]
    # below the accepting top level only the single-letter loops remain
    assert sorted(alternating_sets(edges)) == [0b001, 0b010, 0b100]


def test_tree_roundtrip_random_conditions():
    rng = random.Random(41)
    for _ in range(60):
        cond = random_condition(rng, rng.choice((2, 3, 4)))
        tree = zielonka_tree(cond)
        recovered = zielonka_tree_from_parity(parity_automaton(cond))
        assert trees_isomorphic(tree, recovered)


def _lasso_equal(a, b, max_period=4):
    assert a.input_alphabet.symbols == b.input_alphabet.symbols
    for length in range(1, max_period + 1):
        for period in itertools.product(a.input_alphabet.symbols, repeat=length):
            word = PeriodicWord((), period)
            if accepts_up_word(a, word) != accepts_up_word(b, word):
                return False
    return True


def test_minimize_parity_hits_leaf_count():
    rng = random.Random(43)
    for _ in range(25):
        cond = random_condition(rng, 3)
        aut = parity_automaton(cond)
        big = inflate(aut, rng, copies=rng.choice((2, 3)))
        assert big.n_states > aut.n_states
        small = minimize_parity(big)
        assert small.n_states == zielonka_tree(cond).leaf_count()
        assert _lasso_equal(small, aut)


def test_minimize_parity_idempotent():
    rng = random.Random(47)
    cond = random_condition(rng, 3)
    aut = parity_automaton(cond)
    again = minimize_parity(aut)
    assert again.n_states == aut.n_states
    assert _lasso_equal(again, aut)


def test_minimize_genbuchi_single_state():
    rng = random.Random(53)
    for _ in range(30):
        aut = random_recognizable_genbuchi(rng, rng.choice((2, 3, 4)),
                                           rng.choice((2, 3)), rng.choice((1, 2, 3)))
        small = minimize_genbuchi(aut)
        assert small.n_states == 1
        assert _lasso_equal(small, aut)
        # the surviving sets are pairwise inclusion-incomparable
        sets = small.acceptance.sets
        for x in sets:
            for y in sets:
                assert x == y or not (x & y) == x


def test_minimize_genbuchi_frozen_ping_pong():
    alpha = Alphabet(("1", "2", "3"))
    # two states ping-ponging, outputs echo inputs
    table = (((1, 0), (1, 1), (1, 2)), ((0, 0), (0, 1), (0, 2)))
    acceptance = GenBuchiAcceptance((0b110, 0b101, 0b011))
    aut = Automaton(2, 0, alpha, Alphabet(alpha.symbols), table, acceptance)
    small = minimize_genbuchi(aut)
    assert small.n_states == 1
    assert sorted(small.acceptance.sets) == [0b011, 0b101, 0b110]


def test_minimize_genbuchi_refuses_order_dependent_language():
    # one state cannot tell whether b came right after a
    with pytest.raises(PreconditionViolation, match="not a conjunction"):
        minimize_genbuchi(a_then_b(GenBuchiAcceptance((0b01,))))


def test_minimize_parity_refuses_order_dependent_language():
    with pytest.raises(PreconditionViolation, match="not a Muller condition"):
        minimize_parity(a_then_b(ParityAcceptance((2, 1))))


def test_minimize_genbuchi_rejects_other_kinds():
    cond = at_least_two_of_three()
    with pytest.raises(UnsupportedOperation):
        minimize_genbuchi(parity_automaton(cond))


def test_minimize_parity_rejects_other_kinds():
    alpha = Alphabet(("1", "2"))
    table = (((0, 0), (0, 1)),)
    aut = Automaton(1, 0, alpha, Alphabet(alpha.symbols),
                    table, GenBuchiAcceptance((0b01,)))
    with pytest.raises(UnsupportedOperation):
        minimize_parity(aut)
