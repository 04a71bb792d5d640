"""Condition trees, memory numbers and the parity automaton construction."""
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mullertools.core import (Alphabet, MalformedInput, MullerCondition,
                              PeriodicWord, ScaleGuard, accepts_up_word)
from mullertools.reduction import zielonka_tree_from_parity
from mullertools.zielonka import (MemoryRequirements, ZielonkaTree, ascii_tree,
                                  general_memory, memory_requirements,
                                  parity_automaton, parity_automaton_from_tree,
                                  tree_from_json, tree_to_json, trees_isomorphic,
                                  zielonka_tree)

from generators import random_condition


def exactly_two(symbols=("a", "b", "c")):
    alpha = Alphabet(tuple(symbols))
    return MullerCondition(alpha, frozenset(
        b for b in range(1, alpha.full_mask + 1) if bin(b).count("1") == 2))


def at_least_two(symbols):
    alpha = Alphabet(tuple(symbols))
    return MullerCondition(alpha, frozenset(
        b for b in range(1, alpha.full_mask + 1) if bin(b).count("1") >= 2))


def test_tree_single_accepting_pair():
    cond = MullerCondition.make(("a", "b"), [("a", "b")])
    tree = zielonka_tree(cond)
    assert tree.accepting
    assert tree.height() == 2
    assert tree.leaf_count() == 2
    assert [c.label_names() for c in tree.children] == [("a",), ("b",)]
    assert all(not c.accepting and not c.children for c in tree.children)


def test_tree_empty_family_is_single_leaf():
    cond = MullerCondition.make(("a", "b"), [])
    tree = zielonka_tree(cond)
    assert not tree.accepting
    assert tree.height() == 1
    assert tree.leaf_count() == 1
    req = memory_requirements(cond)
    assert (req.priorities_used, req.top_priority_even) == (1, False)


def test_tree_exactly_two_of_three():
    tree = zielonka_tree(exactly_two())
    assert not tree.accepting
    assert tree.height() == 3
    assert tree.leaf_count() == 6
    assert len(tree.children) == 3
    assert all(child.accepting and len(child.children) == 2
               for child in tree.children)


def test_tree_children_sorted_by_label():
    tree = zielonka_tree(exactly_two())
    labels = [child.label for child in tree.children]
    assert labels == sorted(labels)


def test_general_memory_values():
    assert general_memory(exactly_two()) == 2
    for n in range(2, 7):
        cond = at_least_two(tuple("abcdefgh"[:n]))
        assert general_memory(cond) == n
    # alternating both letters needs two memory states
    assert general_memory(MullerCondition.make(("a", "b"), [("a", "b")])) == 2
    # visiting a infinitely often is positional
    assert general_memory(MullerCondition.make(("a", "b"), [("a",), ("a", "b")])) == 1


def test_half_positional_iff_no_accepting_branching():
    def half_positional(cond):
        return memory_requirements(cond).half_positional

    # single chain: the accepting root {a, b} has the one child {b}
    assert half_positional(MullerCondition.make(("a", "b"), [("a", "b"), ("a",)]))
    # at-least-two branches at the accepting root for n >= 2
    assert not half_positional(at_least_two(("a", "b", "c")))
    # Buchi-like condition: sets containing a distinguished letter
    buchi = MullerCondition.make(("a", "b"),
                                 [("a",), ("a", "b")])
    assert half_positional(buchi)


def test_genbuchi_recognizable_flags():
    def recognizable(cond):
        return memory_requirements(cond).genbuchi_recognizable

    assert recognizable(at_least_two(("a", "b", "c")))
    assert not recognizable(exactly_two())
    # height 1 trees are trivially recognizable (whole family or nothing)
    assert recognizable(MullerCondition.make(("a",), [("a",)]))
    assert recognizable(MullerCondition.make(("a",), []))


def test_memory_requirements_shape():
    req = memory_requirements(exactly_two())
    assert req.general_memory == 2
    assert not req.half_positional
    assert not req.genbuchi_recognizable
    assert req.priorities_used == 3
    assert not req.top_priority_even


def test_memory_numbers_match_the_built_tree():
    def numbers(node):
        # general memory, height, whether an accepting node branches; checked
        # against what every node stores
        below = [numbers(child) for child in node.children] or [(0, 0, False)]
        memory = (sum if node.accepting else max)(m for m, _, _ in below) or 1
        height = 1 + max(h for _, h, _ in below)
        branches = node.accepting and len(node.children) > 1 or any(b for _, _, b in below)
        assert (node.general_memory(), node.height(), node.branches()) == (memory, height, branches)
        return memory, height, branches

    rng = random.Random(41)
    for _ in range(240):
        cond = random_condition(rng, rng.randint(1, 7))
        req = memory_requirements(cond)
        tree = zielonka_tree(cond)
        want = (req.general_memory, req.priorities_used, not req.half_positional)
        # the tree of the condition, one recovered from its parity automaton,
        # and one read back from JSON with a node per occurrence
        for built in (tree, zielonka_tree_from_parity(parity_automaton(cond)),
                      tree_from_json(tree_to_json(tree))):
            assert numbers(built) == want
            assert built.accepting == req.top_priority_even
        assert general_memory(cond) == req.general_memory
        height = tree.height()
        assert req.genbuchi_recognizable == (height == 1 or height == 2 and tree.accepting)


def label_walk_requirements(cond):
    """Reference numbers with no tree built: a memo of (general memory,
    height, no accepting node branches) per label."""
    memo = {}

    def numbers(label):
        if label not in memo:
            accepting = label in cond.accepting
            below = [numbers(sub) for sub in cond.children(label)]
            memo[label] = (1, 1, True) if not below else (
                (sum if accepting else max)(memory for memory, _, _ in below),
                1 + max(height for _, height, _ in below),
                (not accepting or len(below) == 1) and all(flat for _, _, flat in below))
        return memo[label]

    memory, height, flat = numbers(cond.alphabet.full_mask)
    accepting = cond.alphabet.full_mask in cond.accepting
    return MemoryRequirements(memory, flat, height == 1 or (height == 2 and accepting),
                              height, accepting)


def test_memory_requirements_match_the_label_walk():
    for n in range(1, 5):  # every family over 1-4 letters
        alpha = Alphabet(tuple("abcd"[:n]))
        sets = range(1, alpha.full_mask + 1)
        for members in range(2 ** len(sets)):
            cond = MullerCondition(alpha, frozenset(
                bits for bits in sets if members >> (bits - 1) & 1))
            assert memory_requirements(cond) == label_walk_requirements(cond)
    rng = random.Random(22)
    for _ in range(500):
        cond = random_condition(rng, rng.randint(5, 9))
        assert memory_requirements(cond) == label_walk_requirements(cond)


def test_parity_automaton_single_pair():
    cond = MullerCondition.make(("a", "b"), [("a", "b")])
    aut = parity_automaton(cond)
    assert aut.n_states == 2
    assert aut.acceptance.kind == "parity"
    # staying on one letter loops with the odd priority, switching is even
    for q, sym in ((0, "a"), (1, "b")):
        nxt, out = aut.successor(q, sym)
        assert aut.acceptance.priorities[out] == 1
    for q, sym in ((0, "b"), (1, "a")):
        nxt, out = aut.successor(q, sym)
        assert aut.acceptance.priorities[out] == 2


def test_parity_automaton_priority_range():
    cond = at_least_two(("1", "2", "3"))
    aut = parity_automaton(cond)
    assert aut.n_states == 3
    assert set(aut.acceptance.priorities) == {1, 2}
    cond2 = exactly_two()
    aut2 = parity_automaton(cond2)
    assert aut2.n_states == 6
    assert set(aut2.acceptance.priorities) == {1, 2, 3}


def _language_matches(cond, aut, max_period=4):
    for length in range(1, max_period + 1):
        for period in itertools.product(cond.alphabet.symbols, repeat=length):
            bits = cond.alphabet.bits(period)
            want = cond.admits(bits)
            got = accepts_up_word(aut, PeriodicWord((), period))
            if want != got:
                return False, period
    return True, None


def test_parity_automaton_language_random_conditions():
    rng = random.Random(23)
    for _ in range(40):
        cond = random_condition(rng, rng.choice((2, 3)))
        aut = parity_automaton(cond)
        ok, witness = _language_matches(cond, aut)
        assert ok, f"disagrees on period {witness}"


def test_parity_automaton_language_with_prefixes():
    rng = random.Random(29)
    cond = random_condition(rng, 3)
    aut = parity_automaton(cond)
    for prefix in ((), ("a",), ("c", "b")):
        for period in itertools.product(cond.alphabet.symbols, repeat=3):
            bits = cond.alphabet.bits(period)
            assert accepts_up_word(aut, PeriodicWord(prefix, period)) == cond.admits(bits)


def test_ascii_tree_rendering():
    text = ascii_tree(zielonka_tree(MullerCondition.make(("a", "b"), [("a", "b")])))
    lines = text.splitlines()
    assert lines[0] == "{a,b} [+]"
    assert lines[1] == "+-- {a} [-]"
    assert lines[2] == "`-- {b} [-]"


def test_tree_json_roundtrip():
    rng = random.Random(31)
    for _ in range(20):
        tree = zielonka_tree(random_condition(rng, 3))
        back = tree_from_json(tree_to_json(tree))
        assert trees_isomorphic(tree, back)


def test_tree_rejects_oversized_alphabet():
    alpha = tuple(f"s{i}" for i in range(17))
    cond = MullerCondition.make(alpha, [alpha])
    for build in (zielonka_tree, memory_requirements):
        with pytest.raises(ScaleGuard, match="alphabet of 17 symbols, limit 16"):
            build(cond)


def test_parity_automaton_from_tree_requires_full_root():
    from mullertools.zielonka import ZielonkaTree
    alpha = Alphabet(("a", "b"))
    stub = ZielonkaTree(alpha, 1, True, ())
    with pytest.raises(MalformedInput):
        parity_automaton_from_tree(stub)


@given(st.integers(min_value=0, max_value=2 ** 7 - 1))
@settings(max_examples=40)
def test_general_memory_at_least_one(members):
    alpha = Alphabet(("a", "b", "c"))
    family = frozenset(b for b in range(1, 8) if members >> (b - 1) & 1)
    cond = MullerCondition(alpha, family)
    tree = zielonka_tree(cond)
    assert general_memory(cond) >= 1
    assert tree.leaf_count() >= general_memory(cond)


def test_tree_has_one_node_per_label():
    tree = zielonka_tree(exactly_two("abcd"))
    # {a} lies below both {a, b} and {a, c}
    assert tree.children[0].children[0] is tree.children[1].children[0]
    rng = random.Random(18)
    for _ in range(100):
        tree = zielonka_tree(random_condition(rng, rng.randint(1, 6)))
        nodes, stack = {}, [tree]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node.children)
        labels = [node.label for node in nodes.values()]
        assert len(labels) == len(set(labels))


def test_tree_isomorphism_looks_at_each_node_once(monkeypatch):
    # two builds of one tree share no node object; within each, many labels
    # recur under several parents
    cond = random_condition(random.Random(9), 8)
    tree, again = zielonka_tree(cond), zielonka_tree(cond)
    nodes, stack = set(), [tree, again]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes.add(id(node))
            stack.extend(node.children)
    calls = 0
    label_names = ZielonkaTree.label_names

    def counted(node):
        nonlocal calls
        calls += 1
        return label_names(node)

    monkeypatch.setattr(ZielonkaTree, "label_names", counted)
    assert trees_isomorphic(tree, again)
    assert calls <= len(nodes)
    flipped = frozenset(range(1, cond.alphabet.full_mask + 1)) - cond.accepting
    assert not trees_isomorphic(tree, zielonka_tree(MullerCondition(cond.alphabet, flipped)))


def test_parity_automaton_same_on_shared_and_unshared_tree():
    rng = random.Random(1998)
    for _ in range(300):
        tree = zielonka_tree(random_condition(rng, rng.randint(1, 6)))
        unshared = tree_from_json(tree_to_json(tree))  # one node per occurrence
        assert unshared.leaf_count() == tree.leaf_count()
        assert unshared.height() == tree.height()
        assert parity_automaton_from_tree(unshared) == parity_automaton_from_tree(tree)


@pytest.mark.parametrize("label", ["ab", 3, None, {"a": 0, "b": 1}],
                         ids=["string", "number", "null", "object"])
def test_tree_reader_checks_the_label_of_every_node(label):
    data = tree_to_json(zielonka_tree(exactly_two()))
    assert data["children"][0]["label"] == ["a", "b"]
    data["children"][0]["label"] = label
    with pytest.raises(MalformedInput, match="'label' must be a list of symbols"):
        tree_from_json(data)
