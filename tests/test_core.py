"""Core data structures: alphabets, conditions, automata, cycle sets."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mullertools.core import (Alphabet, Automaton, GenBuchiAcceptance,
                              GenCoBuchiAcceptance, MalformedInput, MullerAcceptance, MullerCondition,
                              ParityAcceptance, PeriodicWord,
                              PreconditionViolation, RabinAcceptance,
                              StreettAcceptance, accepts_up_word, automaton_from_json,
                              automaton_to_json, bit_indices, build_automaton,
                              complement_condition, condition_from_json,
                              condition_to_json, dualise, edge_component,
                              max_inclusion, quotient,
                              strongly_connected_components, submasks,
                              zielonka_children)
from mullertools.rabin import _cycle_covers

from generators import (inflate, random_condition, random_muller_automaton,
                        random_parity_automaton)
from oracles import (closed_walk_sets, colour_set_wins, edge_walks, product_agrees,
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
    assert muller.accepts(0b011)
    assert not muller.accepts(0b001)
    parity = ParityAcceptance((1, 2, 3))
    assert parity.accepts(0b011)      # max priority 2, even
    assert not parity.accepts(0b101)  # max priority 3, odd
    rabin = RabinAcceptance(((0b001, 0b100),))
    assert rabin.accepts(0b011)
    assert not rabin.accepts(0b101)
    assert not rabin.accepts(0b010)
    streett = StreettAcceptance(((0b001, 0b100),))
    assert streett.accepts(0b101)
    assert streett.accepts(0b100)   # vacuous: first set unmet
    assert not streett.accepts(0b001)
    genbuchi = GenBuchiAcceptance((0b011, 0b110))
    assert genbuchi.accepts(0b010)
    assert not genbuchi.accepts(0b001)


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
            assert acc.accepts(bits) != dual.accepts(bits)


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


def test_quotient_keeps_the_language_and_forgets_inflation():
    # parity automata merge states by priority, Muller automata by colour
    rng = random.Random(163)
    merged = 0
    for i in range(200):
        if i % 2:
            aut = random_parity_automaton(rng, rng.randint(1, 4), 2, 2)
            outputs = aut.acceptance.priorities
        else:
            aut = random_muller_automaton(rng, rng.randint(1, 5), 2, 2)
            outputs = range(len(aut.output_alphabet))
        small = quotient(aut, outputs)
        big = inflate(aut, rng, 3)
        big_small = quotient(big, outputs)
        assert product_agrees(aut, small)
        assert product_agrees(big, big_small)
        assert big_small.n_states == small.n_states
        merged += small.n_states < aut.n_states
    assert merged >= 10


def names_quotient(aut, outputs):
    """Reference quotient: states are equivalent when they agree on outputs
    for every word, by refining the pair relation to a fixed point; a class
    keeps the row of its least member, rebuilt through build_automaton by
    symbol name."""
    n, delta = aut.n_states, aut.delta
    same = {(p, q) for p in range(n) for q in range(n)}
    while True:
        kept = {(p, q) for p, q in same
                if all(outputs[cp] == outputs[cq] and (tp, tq) in same
                       for (tp, cp), (tq, cq) in zip(delta[p], delta[q]))}
        if kept == same:
            break
        same = kept
    least = [min(q for q in range(n) if (p, q) in same) for p in range(n)]
    ins, outs = aut.input_alphabet.symbols, aut.output_alphabet.symbols
    transitions = {(q, ins[a]): (least[t], outs[c])
                   for q in set(least) for a, (t, c) in enumerate(delta[q])}
    return build_automaton(initial=least[aut.initial], transitions=transitions,
                           input_symbols=ins, output_symbols=outs,
                           acceptance=aut.acceptance)


def test_quotient_matches_names_reference():
    rng = random.Random(167)
    for i in range(150):
        if i % 2:
            aut = random_parity_automaton(rng, rng.randint(1, 5), 2, 3)
            outputs = aut.acceptance.priorities
        else:
            aut = random_muller_automaton(rng, rng.randint(1, 5), 2, 2)
            outputs = range(len(aut.output_alphabet))
        for version in (aut, inflate(aut, rng, 3)):
            assert quotient(version, outputs) == names_quotient(version, outputs)


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
            covers = {cover for verts, cover in found if verts >> v & 1}
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


def one_state_muller(names, accepting):
    """One state reading a and emitting x, outputs x and y, with a Muller
    acceptance over names, as JSON."""
    return {"states": 1, "initial": 0, "input": ["a"], "output": ["x", "y"],
            "delta": [[0, "a", 0, "x"]],
            "acceptance": {"kind": "muller", "alphabet": names, "accepting": accepting}}


def test_muller_acceptance_json_is_read_by_symbol_name():
    # the acceptance lists y before x, the automaton numbers x as colour 0:
    # {x} is read by name, so a^ω is accepted under either order
    for names in (["y", "x"], ["x", "y"]):
        aut = automaton_from_json(one_state_muller(names, [["x"]]))
        assert aut.acceptance.condition.alphabet == aut.output_alphabet
        assert aut.acceptance.condition.accepting == frozenset({0b01})
        assert accepts_up_word(aut, PeriodicWord((), ("a",)))


def test_muller_acceptance_json_refuses_other_symbols():
    for names in (["x"], ["x", "z"], ["x", "y", "z"]):
        with pytest.raises(MalformedInput, match="must name the output symbols"):
            automaton_from_json(one_state_muller(names, [["x"]]))


def test_automaton_refuses_muller_condition_off_its_output_alphabet():
    out = Alphabet(("x", "y"))
    row = ((0, 0),)
    for names in (("y", "x"), ("x",)):
        cond = MullerAcceptance(MullerCondition.make(names, [("x",)]))
        with pytest.raises(MalformedInput, match="over the output alphabet"):
            Automaton(1, 0, Alphabet(("a",)), out, (row,), cond)
    Automaton(1, 0, Alphabet(("a",)), out, (row,),
              MullerAcceptance(MullerCondition.make(out, [("x",)])))


def test_automaton_json_rejects_garbage():
    with pytest.raises(MalformedInput):
        automaton_from_json([])
    with pytest.raises(MalformedInput):
        automaton_from_json({"states": 1})
    with pytest.raises(MalformedInput):
        condition_from_json({"alphabet": ["a"], "accepting": [["b"]]})


@pytest.mark.parametrize("family, message", [
    (["ab"], "'accepting' must be a list of lists"),
    ([["a"], 1], "'accepting' must be a list of lists"),
    ([None], "'accepting' must be a list of lists"),
    ("a", "'accepting' must be a list of lists"),
    ([["a", "c"]], "unknown symbol 'c'"),
    ([["a"], [1]], "unknown symbol 1"),
    ([[["a"]]], r"unknown symbol \['a'\]"),
    ([[{"a": 1}]], r"unknown symbol \{'a': 1\}"),
], ids=["string-set", "number-set", "null-set", "string-family", "unknown",
        "number-symbol", "list-symbol", "object-symbol"])
def test_condition_reader_refuses_malformed_families(family, message):
    with pytest.raises(MalformedInput, match=message):
        condition_from_json({"alphabet": ["a", "b"], "accepting": family})


def test_condition_reader_refuses_malformed_alphabets():
    for alphabet in (["a", 1], "ab", None, ["a", ["b"]]):
        with pytest.raises(MalformedInput, match="'alphabet' must be a list of strings"):
            condition_from_json({"alphabet": alphabet, "accepting": []})
    with pytest.raises(MalformedInput, match="duplicate symbol 'a'"):
        condition_from_json({"alphabet": ["a", "a"], "accepting": []})


def test_condition_constructor_refuses_empty_and_outside_sets():
    ab = Alphabet(("a", "b"))
    with pytest.raises(MalformedInput, match="must not contain the empty set"):
        MullerCondition(ab, frozenset({1, 0}))
    for bits in (4, 7, -1, 1 << 70):
        with pytest.raises(MalformedInput, match="uses symbols outside the alphabet"):
            MullerCondition(ab, frozenset({1, bits}))
    assert MullerCondition(ab, frozenset({1, 2, 3})).accepting == {1, 2, 3}
    assert MullerCondition(ab, frozenset()).accepting == frozenset()
    # make drops an empty set: it is never produced infinitely often
    assert condition_from_json({"alphabet": ["a", "b"], "accepting": [[], ["b", "b"]]}
                               ).accepting == {2}
    # make takes iterables of symbols; a number is none, and the symbol of
    # an earlier set is not blamed for it
    with pytest.raises(TypeError):
        MullerCondition.make(ab, [["b"], 5])


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


def test_condition_child_memo_is_no_part_of_its_value():
    worked, fresh = (MullerCondition.make("abc", [("a", "b"), ("c",), ("a", "b", "c")])
                     for _ in range(2))
    children = worked.children(0b111)
    assert children == tuple(zielonka_children(0b111, worked.accepting.__contains__))
    assert worked.children(0b111) is children  # kept, not worked out again
    assert worked == fresh and hash(worked) == hash(fresh)
    assert len({worked, fresh}) == 1 and repr(worked) == repr(fresh)


def _random_acceptances(rng: random.Random, g: int) -> list:
    """One acceptance of every kind over g colours."""
    full = (1 << g) - 1
    sets = tuple(rng.randint(0, full) for _ in range(rng.randint(1, 3)))
    pairs = tuple((rng.randint(0, full), rng.randint(0, full))
                  for _ in range(rng.randint(1, 3)))
    family = frozenset(bits for bits in range(1, full + 1) if rng.random() < 0.5)
    return [MullerAcceptance(MullerCondition(Alphabet(tuple("abcde"[:g])), family)),
            ParityAcceptance(tuple(rng.randint(0, 4) for _ in range(g))),
            RabinAcceptance(pairs), StreettAcceptance(pairs),
            GenBuchiAcceptance(sets), GenCoBuchiAcceptance(sets)]


def test_each_kind_answers_its_verdicts_and_children():
    # verdicts against the oracle's reading of the fields; children against
    # the subset descent and against the largest strict subsets that the
    # oracle puts on the other side
    rng = random.Random(26)
    for _ in range(60):
        g = rng.randint(1, 5)
        for acc in _random_acceptances(rng, g):
            for bits in range(1, 1 << g):
                wins = colour_set_wins(acc, bits)
                assert acc.accepts(bits) == wins, (acc, bits)
                other = [sub for sub in submasks(bits)
                         if sub != bits and colour_set_wins(acc, sub) != wins]
                children = acc.children(bits)
                assert list(children) == sorted(quad_max_inclusion(other)), (acc, bits)
                assert children == tuple(zielonka_children(bits, acc.accepts))


def test_gencobuchi_wins_by_avoiding_a_listed_set():
    acc = GenCoBuchiAcceptance((0b011, 0b100))
    assert acc.accepts(0b100)  # avoids {0, 1}
    assert acc.accepts(0b001)
    assert not acc.accepts(0b101)  # meets both sets
    assert acc.children(0b101) == (0b001, 0b100)
    assert all(acc.accepts(bits) != dualise(acc).accepts(bits) for bits in range(1, 8))


def test_automaton_refuses_a_priority_count_unlike_its_outputs():
    ab = Alphabet(("a", "b"))
    rows = (((0, 0), (0, 1)),)
    for priorities in ((0,), (0, 1, 2)):
        with pytest.raises(MalformedInput, match=f"parity acceptance has {len(priorities)}"
                                                 " priorities for 2 output symbols"):
            Automaton(1, 0, ab, ab, rows, ParityAcceptance(priorities))
    assert not Automaton(1, 0, ab, ab, rows, ParityAcceptance((0, 1))).acceptance.accepts(0b11)


def test_muller_acceptance_json_names_an_unknown_symbol_first():
    # a set naming a symbol of neither alphabet is refused as unknown, one
    # naming a symbol of the condition's own alphabet as a mismatch
    for sets, message in (([["q"]], "unknown symbol 'q'"),
                          ([["z"]], "must name the output symbols")):
        with pytest.raises(MalformedInput, match=message):
            automaton_from_json(one_state_muller(["x", "z"], sets))
