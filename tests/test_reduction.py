"""Tree recovery from parity automata and the two minimisers."""
import itertools
import random
import time

import pytest

from mullertools.core import (Alphabet, Automaton, GenBuchiAcceptance,
                              MullerCondition, ParityAcceptance, PeriodicWord,
                              PreconditionViolation, UnsupportedOperation,
                              accepts_up_word, build_automaton,
                              strongly_connected_components, submasks)
from mullertools.reduction import (_closed_part, minimize_genbuchi, minimize_parity,
                                   zielonka_tree_from_parity)
from mullertools.zielonka import (parity_automaton, trees_isomorphic,
                                  zielonka_tree)

from generators import (a_then_b, inflate, random_condition, random_genbuchi_automaton,
                        random_parity_automaton, random_recognizable_genbuchi)
from oracles import closed_part_tree, one_state_genbuchi_exists, product_agrees


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


def test_tree_recovery_on_inflated_automata_matches_closed_part_oracle():
    # an inflated copy has bisimilar states to merge, and its closed part's
    # cycles run through several copies of a state
    rng = random.Random(61)
    graded = 0
    for _ in range(600):
        aut = random_parity_automaton(rng, rng.randint(1, 3), rng.choice((2, 3)), 3)
        big = inflate(aut, rng, rng.choice((2, 3)))
        want = closed_part_tree(big)
        if want is not None:
            assert _nested(zielonka_tree_from_parity(big)) == want
            graded += 1
    assert graded >= 200


def _closed_components(edges, letters):
    # every strongly connected component of the edges over the letters that
    # no such edge leaves, by least state: a full decomposition of the part
    sub = [e for e in edges if 1 << e[3] & letters]
    return [inner for comp, inner in
            strongly_connected_components({v for e in sub for v in e[:2]}, sub)
            if len(inner) == len(comp) * letters.bit_count()]


def test_closed_part_matches_a_full_decomposition():
    # the whole automaton, then a closed part over a random letter set inside
    # the last one, three levels deep; edges are (q, target, colour bit, letter)
    rng = random.Random(23)
    transient = several = 0
    for draw in range(600):
        aut = random_parity_automaton(rng, rng.randint(1, 6), rng.choice((2, 3, 4)), 3)
        if draw % 2:
            aut = inflate(aut, rng, rng.choice((2, 3)))
        delta, label = aut.delta, aut.input_alphabet.full_mask
        part = [(q, t, 1 << c, a) for q, row in enumerate(delta) for a, (t, c) in enumerate(row)]
        for _ in range(3):
            letters = rng.choice(list(submasks(label)))
            states = sorted({e[0] for e in part})
            closed = _closed_components(part, letters)
            assert _closed_part(delta, states, letters) == closed[0]
            transient += closed[0][0][0] != states[0]
            several += len(closed) > 1
            part, label = closed[0], letters
    assert transient >= 200 and several >= 100


def test_closed_part_finds_a_smaller_part_behind_a_later_root():
    # 0 is transient and leads to the closed part {3}; the closed part {1}
    # is reached from no root before it, and 2 comes after it
    delta = (((3, 0),), ((1, 0),), ((0, 0),), ((3, 0),))
    edges = [(q, t, 1 << c, 0) for q, ((t, c),) in enumerate(delta)]
    assert _closed_part(delta, range(4), 1) == ((1, 1, 1, 0),)
    assert _closed_components(edges, 1) == [((1, 1, 1, 0),), ((3, 3, 1, 0),)]


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
    # one state with a self-loop per letter, letter i emitting colour i: a
    # walk over every cycle meets a cover for every non-empty set of letters,
    # while the self-check takes one strongly connected part per maximal
    # rejecting letter set
    def loops(n):
        names = Alphabet(tuple(f"l{i}" for i in range(n)))
        return Automaton(1, 0, names, names, (tuple((0, i) for i in range(n)),),
                         GenBuchiAcceptance((0b01, 0b10)))

    for n in (16, 64):
        start = time.perf_counter()
        assert minimize_genbuchi(loops(n)).acceptance.sets == (0b01, 0b10)
        assert time.perf_counter() - start < 0.5


def test_minimize_genbuchi_matches_closed_walk_oracle():
    # it refuses exactly the languages that no one-state generalised Buchi
    # automaton has, and every answer has the input's language
    rng = random.Random(5)
    refused = 0
    for draw in range(3000):
        if draw % 2:
            aut = random_genbuchi_automaton(rng, rng.randint(1, 3), rng.choice((2, 3)),
                                            rng.choice((2, 3)), rng.randint(1, 3))
        else:
            aut = random_recognizable_genbuchi(rng, rng.randint(1, 4), rng.choice((2, 3)),
                                               rng.randint(1, 3))
        if one_state_genbuchi_exists(aut):
            assert product_agrees(aut, minimize_genbuchi(aut))
        else:
            refused += 1
            with pytest.raises(PreconditionViolation, match="not a conjunction"):
                minimize_genbuchi(aut)
    assert 0 < refused < 1500


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
