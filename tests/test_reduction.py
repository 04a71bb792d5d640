"""Tree recovery from parity automata and the two minimisers."""
import itertools
import random
import time

import pytest

from mullertools.core import (Alphabet, Automaton, GenBuchiAcceptance,
                              MullerCondition, ParityAcceptance, PeriodicWord,
                              PreconditionViolation, ScaleGuard,
                              UnsupportedOperation, accepts_up_word,
                              build_automaton)
from mullertools.reduction import (minimize_genbuchi, minimize_parity,
                                   zielonka_tree_from_parity)
from mullertools.zielonka import (parity_automaton, trees_isomorphic,
                                  zielonka_tree)

from generators import (a_then_b, inflate, random_condition,
                        random_parity_automaton, random_recognizable_genbuchi)
from oracles import closed_part_tree


def at_least_two_of_three():
    alpha = Alphabet(("1", "2", "3"))
    return MullerCondition(alpha, frozenset(
        b for b in range(1, 8) if bin(b).count("1") >= 2))


def test_alternating_sets_frozen():
    tree = zielonka_tree_from_parity(parity_automaton(at_least_two_of_three()))
    # below the accepting root only the single-letter loops remain
    assert [child.label for child in tree.children] == [0b001, 0b010, 0b100]


def test_tree_roundtrip_random_conditions():
    rng = random.Random(41)
    for _ in range(60):
        cond = random_condition(rng, rng.choice((2, 3, 4)))
        tree = zielonka_tree(cond)
        recovered = zielonka_tree_from_parity(parity_automaton(cond))
        assert trees_isomorphic(tree, recovered)


def _nested(tree):
    return (tree.label, tree.accepting, tuple(_nested(kid) for kid in tree.children))


def test_tree_recovery_matches_closed_part_oracle():
    # one colour per transition, so the loops of a state can have different
    # priorities; graded only where the closed part's cycles judge every
    # letter set one way (the function reads only that part)
    rng = random.Random(59)
    graded = 0
    for _ in range(1500):
        aut = random_parity_automaton(rng, 2, 3, 3)
        want = closed_part_tree(aut)
        if want is not None:
            assert _nested(zielonka_tree_from_parity(aut)) == want
            graded += 1
    assert graded >= 600


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


def test_minimize_genbuchi_guards_its_cycle_walk():
    # one state with a self-loop per letter, letter i emitting colour i: the
    # self-check walks a cover for every non-empty set of letters
    def loops(n):
        names = Alphabet(tuple(f"l{i}" for i in range(n)))
        return Automaton(1, 0, names, names, (tuple((0, i) for i in range(n)),),
                         GenBuchiAcceptance((0b01, 0b10)))

    start = time.perf_counter()
    with pytest.raises(ScaleGuard, match="input side uses 16 letters, limit 14"):
        minimize_genbuchi(loops(16))
    assert time.perf_counter() - start < 0.5
    assert minimize_genbuchi(loops(14)).acceptance.sets == (0b01, 0b10)


def test_minimize_parity_refuses_order_dependent_language():
    with pytest.raises(PreconditionViolation, match="not a Muller condition"):
        minimize_parity(a_then_b(ParityAcceptance((2, 1))))


def test_minimize_genbuchi_rejects_other_kinds():
    cond = at_least_two_of_three()
    with pytest.raises(UnsupportedOperation):
        minimize_genbuchi(parity_automaton(cond))


def test_tree_recovery_is_not_exponential_in_colours():
    # letter a walks a ring of 20 states, each step with its own colour of
    # priority 2..21; b and c loop in place with priorities 22 and 0.  The
    # root cover has 22 colours, and a descent through every colour set on
    # its side would meet about 2^20 of them
    n = 20
    transitions = {}
    for q in range(n):
        transitions[q, "a"] = ((q + 1) % n, f"r{q}")
        transitions[q, "b"] = (q, "x")
        transitions[q, "c"] = (q, "y")
    aut = build_automaton(initial=0, transitions=transitions, input_symbols="abc",
                          output_symbols=[f"r{q}" for q in range(n)] + ["x", "y"],
                          acceptance=ParityAcceptance(tuple(range(2, n + 2)) + (n + 2, 0)))
    start = time.perf_counter()
    tree = zielonka_tree_from_parity(aut)
    assert time.perf_counter() - start < 1
    # a cycle with a goes round the ring; b wins, else a loses, else c wins
    cond = MullerCondition.make("abc", [("b",), ("a", "b"), ("b", "c"),
                                        ("a", "b", "c"), ("c",)])
    assert trees_isomorphic(tree, zielonka_tree(cond))
    assert [node.label for node in (tree, *tree.children)] == [0b111, 0b101]
    assert minimize_parity(aut).n_states == parity_automaton(cond).n_states


def test_minimize_parity_rejects_other_kinds():
    alpha = Alphabet(("1", "2"))
    table = (((0, 0), (0, 1)),)
    aut = Automaton(1, 0, alpha, Alphabet(alpha.symbols),
                    table, GenBuchiAcceptance((0b01,)))
    with pytest.raises(UnsupportedOperation):
        minimize_parity(aut)
