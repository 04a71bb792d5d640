"""Core data structures: alphabets, conditions, automata, cycle sets."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mullertools.core import (Alphabet, GenBuchiAcceptance, MalformedInput,
                              MullerAcceptance, MullerCondition,
                              ParityAcceptance, PeriodicWord,
                              PreconditionViolation, RabinAcceptance,
                              ScaleGuard, StreettAcceptance, _cycle_covers,
                              accepting_colour_set, accepts_up_word,
                              automaton_from_json, automaton_to_json,
                              bit_indices, build_automaton,
                              complement_condition, condition_from_json,
                              condition_to_json, dualise, edge_component,
                              max_inclusion,
                              realizable_cycle_sets,
                              strongly_connected_components, submasks,
                              zielonka_children)

from generators import random_condition, random_muller_automaton
from oracles import (automaton_cycle_sets, closed_walk_sets, edge_walks,
                     quad_max_inclusion, scc_by_reachability)


def test_alphabet_basics():
    a = Alphabet(("x", "y", "z"))
    assert len(a) == 3
    assert a.position("y") == 1
    assert a.bit("z") == 4
    assert a.bits(("x", "z")) == 5
    assert a.names(5) == ("x", "z")
    assert a.full_mask == 7
    assert "y" in a and "w" not in a


def test_alphabet_rejects_duplicates_and_unknowns():
    with pytest.raises(MalformedInput):
        Alphabet(("a", "a"))
    with pytest.raises(MalformedInput):
        Alphabet(("a",)).position("b")
    for symbol in ("b", ["a"], None, 0):  # a JSON list is unhashable
        with pytest.raises(MalformedInput, match="unknown symbol"):
            Alphabet(("a",)).position(symbol)
        with pytest.raises(MalformedInput, match="unknown symbol"):
            Alphabet(("a",)).bits(["a", symbol])
    with pytest.raises(MalformedInput):
        Alphabet(())


def test_condition_membership_and_complement():
    cond = MullerCondition.make(("a", "b"), [("a",), ("a", "b")])
    assert cond.admits(1)
    assert not cond.admits(2)
    comp = complement_condition(cond)
    assert not comp.admits(1)
    assert comp.admits(2)
    with pytest.raises(PreconditionViolation):
        cond.admits(0)


def test_condition_drops_empty_member():
    cond = MullerCondition.make(("a",), [()])
    assert cond.accepting == frozenset()


def test_bit_helpers():
    assert list(bit_indices(0b1101)) == [0, 2, 3]
    assert set(submasks(0b101)) == {0b101, 0b100, 0b001}
    assert list(submasks(0)) == []


def test_max_inclusion_matches_quadratic_oracle():
    rng = random.Random(7)
    for _ in range(200):
        family = [rng.randrange(1, 64) for _ in range(rng.randrange(1, 10))]
        assert set(max_inclusion(family)) == quad_max_inclusion(family)


def test_max_inclusion_sorted_ascending():
    out = max_inclusion([3, 5, 1, 2])
    assert out == sorted(out)


def test_accepting_colour_set_kinds():
    # outputs: bit 0, bit 1, bit 2
    muller = MullerAcceptance(MullerCondition.make(("0", "1", "2"), [("0", "1")]))
    assert accepting_colour_set(muller, 0b011)
    assert not accepting_colour_set(muller, 0b001)
    parity = ParityAcceptance((1, 2, 3))
    assert accepting_colour_set(parity, 0b011)      # max priority 2, even
    assert not accepting_colour_set(parity, 0b101)  # max priority 3, odd
    rabin = RabinAcceptance(((0b001, 0b100),))
    assert accepting_colour_set(rabin, 0b011)
    assert not accepting_colour_set(rabin, 0b101)
    assert not accepting_colour_set(rabin, 0b010)
    streett = StreettAcceptance(((0b001, 0b100),))
    assert accepting_colour_set(streett, 0b101)
    assert accepting_colour_set(streett, 0b100)   # vacuous: first set unmet
    assert not accepting_colour_set(streett, 0b001)
    genbuchi = GenBuchiAcceptance((0b011, 0b110))
    assert accepting_colour_set(genbuchi, 0b010)
    assert not accepting_colour_set(genbuchi, 0b001)


def test_dualise_swaps_and_involutes():
    rabin = RabinAcceptance(((0b01, 0b10), (0b11, 0b00)))
    streett = dualise(rabin)
    assert streett.kind == "streett"
    assert dualise(streett) == rabin
    gb = GenBuchiAcceptance((0b01,))
    assert dualise(gb).kind == "gencobuchi"
    assert dualise(dualise(gb)) == gb


def test_dualise_is_complement():
    rng = random.Random(3)
    for _ in range(50):
        pairs = tuple((rng.randrange(1, 8), rng.randrange(0, 8))
                      for _ in range(rng.randrange(1, 3)))
        acc = RabinAcceptance(pairs)
        dual = dualise(acc)
        for bits in range(1, 8):
            assert accepting_colour_set(acc, bits) != accepting_colour_set(dual, bits)


def test_build_automaton_is_bfs_canonical():
    # states named arbitrarily; canonical numbering must follow BFS order
    trans = {
        ("hub", "a"): ("left", "0"),
        ("hub", "b"): ("right", "1"),
        ("left", "a"): ("hub", "1"),
        ("left", "b"): ("left", "0"),
        ("right", "a"): ("right", "0"),
        ("right", "b"): ("hub", "0"),
        ("orphan", "a"): ("orphan", "0"),   # unreachable, must be dropped
        ("orphan", "b"): ("hub", "0"),
    }
    aut = build_automaton(initial="hub", transitions=trans,
                          input_symbols=("a", "b"), output_symbols=("0", "1"),
                          acceptance=GenBuchiAcceptance((0b10,)))
    assert aut.n_states == 3
    assert aut.initial == 0
    # hub=0, then left=1 (via a), right=2 (via b)
    assert aut.delta[0][0] == (1, 0)
    assert aut.delta[0][1] == (2, 1)


def test_build_automaton_rejects_partial_tables():
    with pytest.raises(MalformedInput):
        build_automaton(initial=0, transitions={(0, "a"): (0, "0")},
                        input_symbols=("a", "b"), output_symbols=("0",),
                        acceptance=GenBuchiAcceptance((1,)))


def test_scc_decomposition():
    edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (4, 4)]
    comps = strongly_connected_components(range(5), edges)
    as_sets = [set(vs) for vs, _ in comps]
    assert {0, 1} in as_sets and {2, 3} in as_sets and {4} in as_sets
    for vs, internal in comps:
        for src, dst in internal:
            assert src in vs and dst in vs
    # ordered by smallest vertex
    assert [min(vs) for vs, _ in comps] == sorted(min(vs) for vs, _ in comps)


def test_scc_decomposition_matches_reachability_oracle():
    rng = random.Random(157)
    for _ in range(500):
        ids = rng.sample(range(30), rng.randint(1, 8))  # not contiguous
        vertices = ids + rng.choices(ids, k=rng.randint(0, 3))  # repeats
        rng.shuffle(vertices)
        ends = ids + [30, 31]  # 30 and 31 are outside vertices
        edges = []
        for _ in range(rng.randint(0, 14)):
            src = rng.choice(ends)
            dst = src if rng.random() < 0.2 else rng.choice(ends)
            edge = ((src, dst) if rng.random() < 0.5
                    else (src, dst, rng.randrange(4), rng.randrange(3)))
            edges += [edge] * rng.choice((1, 1, 1, 2))  # parallel copies
        assert (strongly_connected_components(vertices, edges)
                == scc_by_reachability(vertices, edges))


def test_realizable_cycle_sets_match_walk_oracle():
    rng = random.Random(11)
    for _ in range(40):
        aut = random_muller_automaton(rng, rng.randrange(1, 5), 2, 3)
        for q in range(aut.n_states):
            got = set(realizable_cycle_sets(aut, q))
            want = automaton_cycle_sets(aut, q)
            assert got == want


def test_realizable_cycle_sets_over_input():
    rng = random.Random(13)
    aut = random_muller_automaton(rng, 3, 2, 2)
    got = set(realizable_cycle_sets(aut, 0, over="input"))
    want = automaton_cycle_sets(aut, 0, over="input")
    assert got == want


def test_cycle_covers_match_walk_oracle():
    rng = random.Random(163)
    labels = (0, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110)  # silent, one and two bits
    for _ in range(400):
        n = rng.randint(1, 5)
        edges = [(rng.randrange(n), rng.randrange(n), rng.choice(labels))
                 for _ in range(rng.randint(1, 9))]
        found = list(_cycle_covers(edges))
        assert len(found) == len(set(found))  # each component once
        for v in range(n):
            covers = {cover for comp, cover in found if v in comp}
            assert covers == closed_walk_sets(n, edges, v)


def test_edge_component_matches_walk_oracle():
    rng = random.Random(171)
    labels = (0, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110)  # silent, one and two bits
    for _ in range(300):
        n = rng.randint(1, 5)
        edges = [(rng.randrange(n), rng.randrange(n), rng.choice(labels))
                 for _ in range(rng.randint(1, 9))]
        out = [[] for _ in range(n)]
        for src, dst, label in edges:
            out[src].append((dst, label))
        for src, dst, label in edges:
            within = {v for v in range(n) if rng.random() < 0.5} | {src, dst}
            # the searches forbid only colours the new edge's label avoids
            for forbidden in (m for m in range(8) if not m & label):
                comp, cover = edge_component(out, src, dst, forbidden)
                assert (comp, cover) == edge_walks(edges, src, dst, label, forbidden)
                assert edge_component(out, src, dst, ~(7 & ~forbidden)) == (comp, cover)
                assert (edge_component(out, src, dst, forbidden, within)
                        == edge_walks(edges, src, dst, label, forbidden, within))


def test_realizable_sets_scale_guard():
    syms = tuple(f"c{i}" for i in range(21))
    aut = build_automaton(initial=0, transitions={(0, s): (0, s) for s in syms},
                          input_symbols=syms, output_symbols=syms,
                          acceptance=GenBuchiAcceptance((1,)))
    with pytest.raises(ScaleGuard, match="21 distinct colours, limit 20"):
        realizable_cycle_sets(aut, 0)


def test_accepts_up_word_on_two_state_switch():
    # accepts exactly the words using both letters infinitely often
    trans = {
        (0, "a"): (0, "a"), (0, "b"): (1, "b"),
        (1, "a"): (0, "a"), (1, "b"): (1, "b"),
    }
    cond = MullerCondition.make(("a", "b"), [("a", "b")])
    aut = build_automaton(initial=0, transitions=trans,
                          input_symbols=("a", "b"), output_symbols=("a", "b"),
                          acceptance=MullerAcceptance(cond))
    assert accepts_up_word(aut, PeriodicWord(("a",), ("a", "b")))
    assert not accepts_up_word(aut, PeriodicWord(("b", "a"), ("a",)))
    assert not accepts_up_word(aut, PeriodicWord((), ("b",)))


def test_condition_json_roundtrip():
    rng = random.Random(5)
    for _ in range(30):
        cond = random_condition(rng, rng.randrange(1, 5))
        data = condition_to_json(cond)
        back = condition_from_json(data)
        assert back == cond


def test_automaton_json_roundtrip_all_kinds():
    rng = random.Random(17)
    for kind in ("muller", "parity", "rabin", "streett", "genbuchi", "gencobuchi"):
        aut = random_muller_automaton(rng, 3, 2, 2)
        if kind == "parity":
            acc = ParityAcceptance((1, 2))
        elif kind == "rabin":
            acc = RabinAcceptance(((0b01, 0b10),))
        elif kind == "streett":
            acc = StreettAcceptance(((0b01, 0b00),))
        elif kind == "genbuchi":
            acc = GenBuchiAcceptance((0b01, 0b11))
        elif kind == "gencobuchi":
            acc = dualise(GenBuchiAcceptance((0b01,)))
        else:
            acc = aut.acceptance
        aut = build_automaton(
            initial=0,
            transitions={(q, sym): (dst, aut.output_alphabet.symbols[out])
                         for q in range(aut.n_states)
                         for sym, (dst, out) in zip(aut.input_alphabet.symbols, aut.delta[q])},
            input_symbols=aut.input_alphabet.symbols,
            output_symbols=aut.output_alphabet.symbols,
            acceptance=acc)
        back = automaton_from_json(automaton_to_json(aut))
        assert back == aut


def test_automaton_json_rejects_garbage():
    with pytest.raises(MalformedInput):
        automaton_from_json([])
    with pytest.raises(MalformedInput):
        automaton_from_json({"states": 1})
    with pytest.raises(MalformedInput):
        condition_from_json({"alphabet": ["a"], "accepting": [["b"]]})


@given(st.integers(min_value=1, max_value=255))
@settings(max_examples=60)
def test_submasks_are_exactly_nonempty_subsets(mask):
    subs = list(submasks(mask))
    assert len(subs) == len(set(subs))
    assert all(s and (s | mask) == mask for s in subs)
    assert len(subs) == (1 << bin(mask).count("1")) - 1


@given(st.lists(st.integers(min_value=1, max_value=63), min_size=1, max_size=8))
@settings(max_examples=60)
def test_max_inclusion_property(family):
    chosen = max_inclusion(family)
    assert set(chosen) == quad_max_inclusion(family)


@given(st.integers(min_value=1, max_value=63),
       st.sets(st.integers(min_value=1, max_value=63), max_size=40))
@settings(max_examples=100)
def test_zielonka_children_are_the_largest_subsets_on_the_other_side(label, family):
    side = label in family
    other = [sub for sub in range(1, label) if sub & ~label == 0
             and (sub in family) != side]
    got = zielonka_children(label, family.__contains__)
    assert got == sorted(quad_max_inclusion(other))
