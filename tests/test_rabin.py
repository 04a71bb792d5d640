"""Rabin typeness, pair synthesis, equivalence checks and the structure search."""
import itertools
import json
import random
import time
from dataclasses import replace

import pytest

from mullertools.cli import main
from mullertools.core import (Alphabet, Automaton, MullerAcceptance,
                              MullerCondition, ParityAcceptance, PeriodicWord,
                              PreconditionViolation, RabinAcceptance,
                              ScaleGuard, accepts_up_word,
                              build_automaton, complement_condition,
                              condition_to_json)
from mullertools.rabin import (NotRabinTypeable, RabinTypenessReport,
                               _beaten, _conflicts, _first_rows, _letter_swaps,
                               _lower_bound,
                               canonical_structures, check_rabin_typeable,
                               chromatic_memory, min_rabin_size,
                               muller_equivalent, rabin_equivalent,
                               synthesize_rabin_pairs)
from mullertools.games import at_least_two_colours, exactly_two_colours
from mullertools.graphs import SimpleGraph, graph_edge_condition
from mullertools.zielonka import parity_automaton

from generators import (inflate, random_condition, random_genbuchi_automaton,
                        random_muller_automaton, random_rabin_automaton,
                        random_transitions)
from oracles import (automaton_cycle_sets, brute_chromatic, brute_min_rabin_size,
                     colour_set_wins, first_reference_tables, product_agrees)


def echo_automaton(cond: MullerCondition) -> Automaton:
    """One state, outputs echo inputs, accepts via the condition."""
    alpha = cond.alphabet
    trans = {(0, sym): (0, sym) for sym in alpha.symbols}
    return build_automaton(initial=0, transitions=trans,
                           input_symbols=alpha.symbols,
                           output_symbols=alpha.symbols,
                           acceptance=MullerAcceptance(cond))


def exactly_two_of_three() -> MullerCondition:
    alpha = Alphabet(("1", "2", "3"))
    return MullerCondition(alpha, frozenset(
        b for b in range(1, 8) if bin(b).count("1") == 2))


def both_letters() -> MullerCondition:
    return MullerCondition.make(("a", "b"), [("a", "b")])


def test_parity_automata_are_typeable():
    rng = random.Random(61)
    for _ in range(20):
        aut = parity_automaton(random_condition(rng, 3))
        assert check_rabin_typeable(aut).typeable


def test_untypeable_witness_frozen():
    report = check_rabin_typeable(echo_automaton(exactly_two_of_three()))
    assert not report.typeable
    assert report.witness == (0, 0b001, 0b010)


def test_typeness_report_against_cycle_oracle():
    rng = random.Random(67)
    for _ in range(60):
        aut = random_muller_automaton(rng, rng.choice((2, 3)), 2, rng.choice((2, 3)))
        report = check_rabin_typeable(aut)
        for state in range(aut.n_states):
            sets = automaton_cycle_sets(aut, state, "output")
            rejecting = [s for s in sets
                         if not aut.acceptance.accepts(s)]
            closed = all(
                (x | y) not in sets
                or not aut.acceptance.accepts(x | y)
                for x in rejecting for y in rejecting)
            if not closed:
                assert not report.typeable
                break
        else:
            assert report.typeable
        if not report.typeable:
            state, first, second = report.witness
            sets = automaton_cycle_sets(aut, state, "output")
            assert first in sets and second in sets
            assert not aut.acceptance.accepts(first)
            assert not aut.acceptance.accepts(second)
            assert aut.acceptance.accepts(first | second)


def _random_typeness_instance(rng: random.Random, family: int) -> Automaton:
    n_states, n_in, n_out = rng.randint(1, 5), rng.choice((2, 3)), rng.choice((2, 3, 4, 5))
    if family == 0:
        return random_muller_automaton(rng, n_states, n_in, n_out)
    if family == 1:
        return random_rabin_automaton(rng, n_states, n_in, n_out, rng.randint(1, 3))
    if family == 2:
        return random_genbuchi_automaton(rng, n_states, n_in, n_out, rng.randint(1, 3))
    tree_parity = inflate(parity_automaton(random_condition(rng, 3)), rng, 2)
    if rng.random() < 0.5:
        return tree_parity
    # the same inflated structure under a random Muller family of its priorities
    out = tree_parity.output_alphabet
    family_bits = frozenset(b for b in range(1, 1 << len(out)) if rng.random() < 0.5)
    return Automaton(tree_parity.n_states, tree_parity.initial,
                     tree_parity.input_alphabet, out, tree_parity.delta,
                     MullerAcceptance(MullerCondition(out, family_bits)))


def test_typeness_matches_closed_walk_oracle():
    # Muller, Rabin, generalised Buchi and inflated tree-parity automata
    rng = random.Random(2105)
    verdicts = {True: 0, False: 0}
    for i in range(1200):
        aut = _random_typeness_instance(rng, i % 4)
        wins = lambda bits: colour_set_wins(aut.acceptance, bits)
        want = True
        for state in range(aut.n_states):
            rejecting = [s for s in automaton_cycle_sets(aut, state) if not wins(s)]
            if any(wins(x | y) for x in rejecting for y in rejecting):
                want = False
                break
        report = check_rabin_typeable(aut)
        assert report.typeable == want
        verdicts[want] += 1
        if not want:
            state, first, second = report.witness
            sets = automaton_cycle_sets(aut, state)
            assert first in sets and second in sets
            assert not wins(first) and not wins(second) and wins(first | second)
    assert min(verdicts.values()) >= 100


def test_untypeable_below_a_rejecting_root():
    # state 0 loops on a and b and goes to state 1 on c, which returns on d;
    # only {a, b} accepts, so the whole component rejects, its largest
    # accepting subcycle is the pair of loops, and those two loops are
    # rejecting cycles through state 0 with an accepting union
    trans = {(0, "a"): (0, "a"), (0, "b"): (0, "b"), (0, "c"): (1, "c"),
             (1, "a"): (0, "d"), (1, "b"): (0, "d"), (1, "c"): (0, "d")}
    cond = MullerCondition.make("abcd", [("a", "b")])
    aut = build_automaton(initial=0, transitions=trans, input_symbols="abc",
                          output_symbols="abcd", acceptance=MullerAcceptance(cond))
    assert not aut.acceptance.accepts(0b1111)
    report = check_rabin_typeable(aut)
    assert report == RabinTypenessReport(False, (0, 0b0001, 0b0010))


def test_one_state_parity_chain_of_14_letters_is_typeable():
    letters = tuple(f"p{i}" for i in range(14))
    aut = build_automaton(initial=0, transitions={(0, a): (0, a) for a in letters},
                          input_symbols=letters, output_symbols=letters,
                          acceptance=ParityAcceptance(tuple(range(14))))
    assert check_rabin_typeable(aut).typeable


def _lasso_equal(a, b, max_period=4):
    for length in range(1, max_period + 1):
        for period in itertools.product(a.input_alphabet.symbols, repeat=length):
            word = PeriodicWord((), period)
            if accepts_up_word(a, word) != accepts_up_word(b, word):
                return False
    return True


def test_synthesize_rabin_pairs_language_preserved():
    rng = random.Random(71)
    produced = 0
    while produced < 25:
        aut = random_muller_automaton(rng, rng.choice((2, 3)), 2, rng.choice((2, 3)))
        report = check_rabin_typeable(aut)
        if not report.typeable:
            with pytest.raises(NotRabinTypeable):
                synthesize_rabin_pairs(aut)
            continue
        rabin = synthesize_rabin_pairs(aut)
        assert rabin.acceptance.kind == "rabin"
        assert rabin.n_states == aut.n_states
        assert rabin.delta != () and all(
            rabin.successor(q, sym)[0] == aut.successor(q, sym)[0]
            for q in range(aut.n_states) for sym in aut.input_alphabet.symbols)
        assert muller_equivalent(aut, rabin)
        assert _lasso_equal(aut, rabin)
        produced += 1


def test_synthesized_pairs_agree_on_random_lassos():
    rng = random.Random(173)
    produced = 0
    while produced < 30:
        aut = random_muller_automaton(rng, rng.choice((2, 3)), rng.choice((2, 3)),
                                      rng.choice((2, 3)))
        if not check_rabin_typeable(aut).typeable:
            continue
        rabin = synthesize_rabin_pairs(aut)
        letters = aut.input_alphabet.symbols
        for _ in range(40):
            word = PeriodicWord(tuple(rng.choices(letters, k=rng.randrange(4))),
                                tuple(rng.choices(letters, k=rng.randint(1, 6))))
            assert accepts_up_word(rabin, word) == accepts_up_word(aut, word)
        produced += 1


def test_synthesis_refuses_more_transitions_than_symbols():
    # a ring of 22 states over three letters where every colour set accepts:
    # typeable, but its 66 transitions need 66 output symbols
    n = 22
    trans = {}
    for q in range(n):
        trans[q, "a"] = ((q + 1) % n, "x")
        trans[q, "b"] = (q, "y")
        trans[q, "c"] = (0, "x")
    cond = MullerCondition.make("xy", [("x",), ("y",), ("x", "y")])
    aut = build_automaton(initial=0, transitions=trans, input_symbols="abc",
                          output_symbols="xy", acceptance=MullerAcceptance(cond))
    assert aut.n_states == n and check_rabin_typeable(aut).typeable
    with pytest.raises(ScaleGuard, match="22 states × 3 letters = 66 transitions,"
                                         " one output symbol each, limit 64"):
        synthesize_rabin_pairs(aut)


# draw 1145 of random_muller_automaton from random.Random(1) with 1-6 states,
# 1-3 letters and 1-5 colours: 18 transitions whose strongly connected
# transition sets are many, while its decomposition has three accepting nodes
DRAW_1145 = (
    ((1, 2), (2, 0), (1, 3)), ((3, 1), (0, 2), (4, 0)), ((1, 0), (0, 3), (3, 0)),
    ((0, 2), (5, 2), (4, 0)), ((5, 0), (2, 0), (1, 0)), ((2, 2), (3, 3), (3, 3)))
DRAW_1145_ACCEPTING = (1, 2, 3, 5, 6, 9, 10, 11, 13)


def test_synthesis_of_draw_1145_is_fast_and_right():
    out = Alphabet(("0", "1", "2", "3"))
    aut = Automaton(6, 0, Alphabet(("a", "b", "c")), out, DRAW_1145,
                    MullerAcceptance(MullerCondition(out, frozenset(DRAW_1145_ACCEPTING))))
    began = time.perf_counter()
    rabin = synthesize_rabin_pairs(aut)
    assert time.perf_counter() - began < 1.0
    assert len(rabin.acceptance.pairs) == 3
    assert product_agrees(aut, rabin)


def test_synthesized_pairs_agree_on_lassos_up_to_63_transitions():
    rng = random.Random(1763)
    produced = verdicts = 0
    while produced < 60:
        g = rng.randint(2, 3)
        aut = random_muller_automaton(rng, rng.randint(-(-21 // g), 63 // g), g,
                                      rng.randint(4, 7))
        m = aut.n_states * g
        if not 21 <= m <= 63 or not check_rabin_typeable(aut).typeable:
            continue
        rabin = synthesize_rabin_pairs(aut)
        letters = aut.input_alphabet.symbols
        for _ in range(100):
            word = PeriodicWord(tuple(rng.choices(letters, k=rng.randrange(6))),
                                tuple(rng.choices(letters, k=rng.randint(1, 8))))
            verdict = accepts_up_word(aut, word)
            assert accepts_up_word(rabin, word) == verdict
            verdicts += verdict
        produced += 1
    assert 0 < verdicts < 6000


def test_small_synthesized_automata_pass_the_product_oracle():
    rng = random.Random(1709)
    checked = 0
    for _ in range(400):
        g = rng.randint(1, 3)
        aut = random_muller_automaton(rng, rng.randint(1, 4), g, rng.randint(1, 5))
        if aut.n_states * g > 12 or not check_rabin_typeable(aut).typeable:
            continue
        assert product_agrees(aut, synthesize_rabin_pairs(aut))
        checked += 1
    assert checked > 300


def test_rabin_equivalent_matches_generic_check():
    rng = random.Random(79)
    for _ in range(60):
        a1 = random_rabin_automaton(rng, rng.choice((1, 2)), 2, 2, rng.choice((1, 2)))
        a2 = random_rabin_automaton(rng, rng.choice((1, 2)), 2, 2, rng.choice((1, 2)))
        assert rabin_equivalent(a1, a2) == muller_equivalent(a1, a2)
        assert rabin_equivalent(a1, a1)


def chained_rabin_automaton(rng: random.Random, n_states: int, n_pairs: int) -> Automaton:
    """Random two-letter Rabin automaton over n_pairs + 1 colours whose
    pairs chain: the second component of pair i is the colour that the first
    component of pair i - 1 is built on.  Read as Streett pairs, a part that
    fails pair i - 1 drops that colour and may then fail pair i on what is
    left, and so on down the chain."""
    colours = [1 << c for c in range(n_pairs + 1)]
    rng.shuffle(colours)
    pairs = tuple((colours[i] | (colours[-1] if rng.random() < 0.3 else 0),
                   colours[i - 1] if i else 0) for i in range(n_pairs))
    outputs = tuple(str(c) for c in range(n_pairs + 1))
    return build_automaton(initial=0,
                           transitions=random_transitions(rng, n_states, "ab", outputs),
                           input_symbols="ab", output_symbols=outputs,
                           acceptance=RabinAcceptance(pairs))


def test_rabin_equivalent_matches_walk_oracle_on_chained_pairs():
    rng = random.Random(211)
    verdicts = []
    for _ in range(150):
        a1 = chained_rabin_automaton(rng, rng.randint(1, 4), rng.randint(2, 5))
        pick = rng.random()
        if pick < 0.4:
            a2 = inflate(a1, rng, 2)
        elif pick < 0.7:  # the same structure under another chain of pairs
            pairs = chained_rabin_automaton(rng, 1, len(a1.output_alphabet) - 1)
            a2 = inflate(replace(a1, acceptance=pairs.acceptance), rng, 2)
        else:
            a2 = chained_rabin_automaton(rng, rng.randint(1, 4), len(a1.output_alphabet) - 1)
        same = rabin_equivalent(a1, a2)
        assert same == product_agrees(a1, a2)
        assert rabin_equivalent(a2, a1) == same
        verdicts.append(same)
    assert min(verdicts.count(True), verdicts.count(False)) >= 20


def test_muller_equivalent_matches_product_oracle():
    rng = random.Random(179)
    verdicts = []
    for _ in range(120):
        a1 = random_muller_automaton(rng, rng.choice((1, 2, 3)), 2, rng.choice((2, 3)))
        if rng.random() < 0.4:
            a2 = inflate(a1, rng, 2)
        elif rng.random() < 0.5:
            a2 = random_rabin_automaton(rng, rng.choice((1, 2)), 2, 2, rng.choice((1, 2)))
        else:
            a2 = parity_automaton(random_condition(rng, 2))
        same = muller_equivalent(a1, a2)
        assert same == product_agrees(a1, a2)
        verdicts.append(same)
    assert 20 < sum(verdicts) < 100


def test_muller_equivalent_scale_guard():
    # fifteen distinct output colours on one side trip the enumeration guard
    syms = tuple(f"c{i}" for i in range(15))
    trans = {(0, s): (0, s) for s in syms}
    alpha_cond = MullerCondition(Alphabet(syms), frozenset((1,)))
    aut = build_automaton(initial=0, transitions=trans, input_symbols=syms,
                          output_symbols=syms,
                          acceptance=MullerAcceptance(alpha_cond))
    with pytest.raises(ScaleGuard, match="left side uses 15 colours, limit 14"):
        muller_equivalent(aut, aut)


def test_product_scale_guard(monkeypatch):
    import mullertools.rabin as rabin
    # the product of a six-state automaton with itself reaches six states
    aut = parity_automaton(exactly_two_colours("abc"))
    monkeypatch.setattr(rabin, "MAX_MULLER_PRODUCT", 6)
    assert muller_equivalent(aut, aut)
    monkeypatch.setattr(rabin, "MAX_MULLER_PRODUCT", 5)
    with pytest.raises(ScaleGuard, match="product reached 6 states, limit 5"):
        muller_equivalent(aut, aut)


def test_product_guard_counts_pairs_of_merged_states():
    # 140 drawn states, 120 of them reachable, and a 3x inflated copy with
    # 282: the product of the automata themselves passes 200 pairs, while
    # the product of their quotients by colour stays on the diagonal
    rng = random.Random(7)
    aut = random_muller_automaton(rng, 140, 2, 4)
    big = inflate(aut, rng, 3)
    assert (aut.n_states, big.n_states) == (120, 282)
    assert muller_equivalent(aut, big)
    flipped = MullerAcceptance(complement_condition(big.acceptance.condition))
    assert not muller_equivalent(aut, replace(big, acceptance=flipped))


def test_canonical_structures_counts():
    assert len(list(canonical_structures(1, 3))) == 1
    tables = list(canonical_structures(2, 3))
    assert len(tables) == 56
    for flat in tables:
        assert 1 in flat  # the non-initial state must be reachable
        # first reference to a new state comes after all smaller ones
        top = 0
        for value in flat:
            assert value <= top + 1
            top = max(top, value)
    assert len(set(tables)) == len(tables)


@pytest.mark.parametrize("k,g", [(2, 3), (3, 2), (3, 3)])
def test_canonical_structures_order(k, g):
    assert list(canonical_structures(k, g)) == sorted(first_reference_tables(k, g))


def flat_table(witness: Automaton) -> tuple[int, ...]:
    return tuple(target for row in witness.delta for target, _ in row)


def test_min_rabin_size_matches_brute_force():
    rng = random.Random(89)
    for _ in range(40):
        g = rng.choice((1, 2, 3))
        cond = random_condition(rng, g)
        bound = 3 if g == 3 else 4
        size, witness = min_rabin_size(cond, bound)
        expected_size, expected_table = brute_min_rabin_size(g, cond.accepting, bound)
        assert size == expected_size
        if size is not None:
            assert flat_table(witness) == expected_table


def test_min_rabin_size_k4_plus_pendant():
    graph = SimpleGraph(5, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)))
    start = time.perf_counter()
    size, witness = min_rabin_size(graph_edge_condition(graph), 4)
    assert size == 4
    assert check_rabin_typeable(witness).typeable
    assert time.perf_counter() - start < 30


def test_min_rabin_size_invariant_under_letter_renaming():
    # the 5-cycle's edge condition is preserved by the ten dihedral symmetries
    cond = graph_edge_condition(SimpleGraph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))))
    sets = [cond.alphabet.names(bits) for bits in cond.accepting]
    for order in ("12345", "31524", "54321", "24135"):
        renamed = MullerCondition.make(tuple(order), sets)
        size, witness = min_rabin_size(renamed, 3)
        assert size == 3
        assert check_rabin_typeable(witness).typeable


def test_exactly_two_colours_frozen_witness():
    size, witness = min_rabin_size(exactly_two_colours("abcd"), 4)
    assert size == 4
    assert flat_table(witness) == (0, 1, 2, 3) * 4


def test_min_rabin_size_frozen_values():
    size, witness = min_rabin_size(both_letters(), 4)
    assert size == 2
    assert witness.n_states == 2
    assert check_rabin_typeable(witness).typeable
    size3, witness3 = min_rabin_size(exactly_two_of_three(), 4)
    assert size3 == 3
    assert check_rabin_typeable(witness3).typeable


def test_min_rabin_size_one_state():
    # a plain Buchi target is Rabin on a single state
    cond = MullerCondition.make(("a", "b"), [("a",), ("a", "b")])
    size, witness = min_rabin_size(cond, 3)
    assert size == 1
    assert witness.n_states == 1


def test_min_rabin_witness_language():
    cond = both_letters()
    _, witness = min_rabin_size(cond, 4)
    assert muller_equivalent(witness, parity_automaton(cond))


def test_min_rabin_size_not_found_within_bound():
    size, witness = min_rabin_size(exactly_two_of_three(), 2)
    assert size is None and witness is None


def test_state_budget_below_one_is_refused():
    for budget in (0, -1):
        with pytest.raises(PreconditionViolation):
            min_rabin_size(both_letters(), budget)
        with pytest.raises(PreconditionViolation):
            chromatic_memory(both_letters(), budget)


def test_chromatic_memory_matches_search():
    assert chromatic_memory(both_letters(), 4) == 2
    assert chromatic_memory(exactly_two_of_three(), 4) == 3


def test_mixed_witness_searches_first_rows():
    # no letter-determined table fits here, so the search walks the kept
    # first rows and returns the lexicographically first typeable table
    mixed = MullerCondition(Alphabet(tuple("abcd")),
                            frozenset((1, 2, 3, 4, 5, 6, 8, 10, 11, 13, 14, 15)))
    size, witness = min_rabin_size(mixed, 3)
    assert size == 3
    assert flat_table(witness) == (0, 0, 0, 1, 1, 0, 2, 1, 0, 0, 2, 2)
    swaps = _letter_swaps(mixed)
    assert sum(not _beaten(row, swaps) for row in _first_rows(3, 4)) == 28


def test_min_rabin_scale_guards():
    wide = MullerCondition.make(tuple(f"s{i}" for i in range(17)),
                                [tuple(f"s{i}" for i in range(17))])
    with pytest.raises(ScaleGuard, match="17 symbols, limit 16"):
        min_rabin_size(wide, 1)
    cond = exactly_two_of_three()
    with pytest.raises(ScaleGuard, match="13 states × 3 letters = 39 cells, limit 36"):
        min_rabin_size(cond, 13)
    assert min_rabin_size(cond, 12)[0] == 3  # 36 cells are within the limit


def complete_graph_condition(n: int) -> MullerCondition:
    edges = tuple(itertools.combinations(range(1, n + 1), 2))
    return graph_edge_condition(SimpleGraph(n, edges))


def test_lower_bound_is_sound():
    rng = random.Random(97)
    for _ in range(300):
        g = rng.choice((1, 2, 3))
        cond = random_condition(rng, g)
        size, _ = brute_min_rabin_size(g, cond.accepting, 3)
        assert size is not None and _lower_bound(cond, _conflicts(cond)) <= size
    # on a graph's edge condition the conflict graph is the graph itself
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for chosen in range(1 << len(pairs)):
            edges = tuple(pair for i, pair in enumerate(pairs) if chosen >> i & 1)
            cond = graph_edge_condition(SimpleGraph(n, edges))
            assert _lower_bound(cond, _conflicts(cond)) == brute_chromatic(n, edges), edges


@pytest.mark.parametrize("cond, budget, expected", [
    (complete_graph_condition(5), 5, 5),
    (complete_graph_condition(6), 6, 6),
    (at_least_two_colours("abcde"), 6, 5),
], ids=["K5", "K6", "at_least_two_colours"])
def test_search_starts_at_a_tight_bound(cond, budget, expected):
    start = time.perf_counter()
    size, witness = min_rabin_size(cond, budget)
    assert time.perf_counter() - start < 5
    assert size == expected
    assert check_rabin_typeable(witness).typeable


def test_budget_below_the_bound(capsys, tmp_path):
    cond = complete_graph_condition(5)
    start = time.perf_counter()
    assert min_rabin_size(cond, 4) == (None, None)
    assert time.perf_counter() - start < 1
    path = tmp_path / "k5.json"
    path.write_text(json.dumps(condition_to_json(cond)))
    assert main(["memchrom", str(path), "--max-size", "4"]) == 0
    assert '"chromatic_memory": null' in capsys.readouterr().out


def four_letter_mask(mask: int) -> MullerCondition:
    """The condition over abcd whose accepting sets are the set bits of a
    15-bit mask, bit i - 1 standing for the letter set with bitset i."""
    return MullerCondition(Alphabet(tuple("abcd")),
                           frozenset(bits for bits in range(1, 16) if mask >> (bits - 1) & 1))


def test_min_rabin_size_above_its_lower_bound():
    # {bc, abc, ad}: the bound is 2, and every 2-state table fails in full
    cond = four_letter_mask(352)
    assert cond.accepting == {0b0110, 0b0111, 0b1001}
    assert _lower_bound(cond, _conflicts(cond)) == 2
    size, witness = min_rabin_size(cond, 3)
    assert (size, flat_table(witness)) == brute_min_rabin_size(4, cond.accepting, 3)
    assert size == 3


def test_structure_search_refuses_past_its_cell_limit(monkeypatch, capsys, tmp_path):
    import mullertools.rabin as rabin
    monkeypatch.setattr(rabin, "MAX_SEARCH_CELLS", 10_000)
    message = "the structure search tried 10001 cells at 6 states, limit 10000"
    cond = four_letter_mask(20000)
    with pytest.raises(ScaleGuard, match=message):
        min_rabin_size(cond, 9)
    path = tmp_path / "mask.json"
    path.write_text(json.dumps(condition_to_json(cond)))
    assert main(["memchrom", str(path), "--max-size", "9"]) == 3
    assert message in capsys.readouterr().err
