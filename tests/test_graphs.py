"""Graph parsing, chromatic numbers and the colouring/automaton converters."""
import itertools
import random

import pytest

from mullertools.core import (Alphabet, Automaton, MalformedInput,
                              ParityAcceptance, PeriodicWord, PropertyViolation,
                              accepts_up_word)
from mullertools.graphs import (SimpleGraph, chromatic_number,
                                colouring_from_json, colouring_to_json,
                                colouring_to_rabin, edge_alternation_automaton,
                                graph_edge_condition,
                                graph_to_dimacs, parse_dimacs,
                                rabin_to_colouring)
from mullertools.rabin import check_rabin_typeable
from mullertools.zielonka import zielonka_tree

from oracles import alternation_accepted, brute_chromatic

P3 = SimpleGraph(3, ((1, 2), (2, 3)))
K3 = SimpleGraph(3, ((1, 2), (2, 3), (1, 3)))
C4 = SimpleGraph(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
K4 = SimpleGraph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))


def random_graph(rng, n):
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < 0.5]
    return SimpleGraph(n, tuple(edges))


def test_graph_validation():
    with pytest.raises(MalformedInput):
        SimpleGraph(2, ((1, 1),))
    with pytest.raises(MalformedInput):
        SimpleGraph(2, ((1, 2), (2, 1)))
    with pytest.raises(MalformedInput):
        SimpleGraph(2, ((1, 3),))
    with pytest.raises(MalformedInput):
        SimpleGraph(0, ())


def test_dimacs_roundtrip():
    for graph in (P3, K3, C4, K4, SimpleGraph(1, ())):
        back = parse_dimacs(graph_to_dimacs(graph))
        assert back.n_vertices == graph.n_vertices
        assert back.normalised_edges() == graph.normalised_edges()


def test_dimacs_parse_fixture():
    text = "c a comment\np edge 3 2\ne 1 2\ne 2 3\n"
    graph = parse_dimacs(text)
    assert graph.n_vertices == 3
    assert graph.normalised_edges() == ((1, 2), (2, 3))


def test_dimacs_rejects_garbage():
    for text in ("", "e 1 2\n", "p edge 2 1\ne 1 2\ne 1 2\n",
                 "p edge two 1\ne 1 2\n", "p edge 2 1\nx 1 2\n",
                 "p edge 2 2\ne 1 2\n"):
        with pytest.raises(MalformedInput):
            parse_dimacs(text)


def test_chromatic_number_fixed_graphs():
    assert chromatic_number(SimpleGraph(1, ()))[0] == 1
    assert chromatic_number(SimpleGraph(2, ((1, 2),)))[0] == 2
    assert chromatic_number(P3)[0] == 2
    assert chromatic_number(K3)[0] == 3
    assert chromatic_number(C4)[0] == 2
    assert chromatic_number(K4)[0] == 4


def test_chromatic_number_against_oracle():
    rng = random.Random(89)
    for _ in range(40):
        graph = random_graph(rng, rng.choice((2, 3, 4, 5)))
        number, witness = chromatic_number(graph)
        assert number == brute_chromatic(graph.n_vertices, graph.edges)
        # the witness must be a proper colouring of exactly that many colours
        assert len(set(witness.values())) == number
        for u, v in graph.edges:
            assert witness[u] != witness[v]


@pytest.mark.parametrize("n, edges, expected", [
    (11, ((1, 3), (1, 9), (1, 11), (2, 4), (2, 6), (2, 7), (2, 9), (2, 11),
          (3, 5), (3, 6), (3, 7), (4, 10), (5, 6), (5, 8), (5, 9), (5, 10),
          (6, 7), (6, 9), (6, 11), (7, 8), (7, 10), (8, 11)),
     (4, [1, 2, 2, 3, 3, 1, 3, 1, 4, 1, 3])),
    (7, ((1, 2), (1, 4), (1, 6), (2, 7), (3, 4), (3, 6), (3, 7)),
     (3, [1, 2, 1, 2, 1, 2, 3])),
], ids=["11-vertices", "7-vertices"])
def test_chromatic_number_witness_is_pinned(n, edges, expected):
    # a branch and bound that keeps descending below a node already using
    # the incumbent's colour count returns another witness on both graphs
    number, witness = chromatic_number(SimpleGraph(n, edges))
    assert (number, [witness[v] for v in range(1, n + 1)]) == expected


def test_graph_condition_tree_matches_general_builder():
    # under a rejecting root, one accepting child per edge, labelled by its
    # endpoints, each with its two endpoints as rejecting leaves; K2's root
    # is its one edge, and it accepts
    def shape(node):
        return node.label, node.accepting, [shape(child) for child in node.children]

    for graph in (P3, K3, C4, SimpleGraph(3, ()), SimpleGraph(2, ((1, 2),))):
        cond = graph_edge_condition(graph)
        bit = cond.alphabet.bit
        edges = sorted((bit(str(u)) | bit(str(v)), True,
                        [(bit(str(u)), False, []), (bit(str(v)), False, [])])
                       for u, v in graph.normalised_edges())
        want = edges[0] if graph.n_vertices == 2 else (cond.alphabet.full_mask, False, edges)
        assert shape(zielonka_tree(cond)) == want


def test_edge_alternation_automaton_unit():
    for graph in (P3, K3, SimpleGraph(2, ((1, 2),)), SimpleGraph(3, ((1, 3),))):
        aut = edge_alternation_automaton(graph)
        assert aut.n_states == graph.n_vertices
        syms = tuple(str(v) for v in range(1, graph.n_vertices + 1))
        for length in range(1, 4):
            for period in itertools.product(syms, repeat=length):
                for prefix in ((), (syms[0],)):
                    word = PeriodicWord(prefix, period)
                    want = alternation_accepted(graph.normalised_edges(),
                                                prefix, period)
                    assert accepts_up_word(aut, word) == want, (graph, word)


def test_edge_alternation_automaton_is_discrete_colouring_automaton():
    rng = random.Random(131)
    for _ in range(60):
        graph = random_graph(rng, rng.randint(1, 7))
        aut = edge_alternation_automaton(graph)
        discrete = colouring_to_rabin(
            graph, {v: v for v in range(1, graph.n_vertices + 1)})
        assert (aut.delta, aut.acceptance) == (discrete.delta, discrete.acceptance)


def test_colouring_to_rabin_accepts_same_language():
    for graph in (P3, K3, C4):
        _, witness = chromatic_number(graph)
        aut = colouring_to_rabin(graph, witness)
        assert aut.n_states == len(set(witness.values()))
        syms = tuple(str(v) for v in range(1, graph.n_vertices + 1))
        for length in range(1, 4):
            for period in itertools.product(syms, repeat=length):
                word = PeriodicWord((), period)
                want = alternation_accepted(graph.normalised_edges(), (), period)
                assert accepts_up_word(aut, word) == want, (graph, word)


def test_colouring_roundtrip_through_rabin():
    rng = random.Random(97)
    for _ in range(20):
        graph = random_graph(rng, rng.choice((2, 3, 4)))
        if not graph.edges:
            continue
        number, witness = chromatic_number(graph)
        aut = colouring_to_rabin(graph, witness)
        back = rabin_to_colouring(aut, graph)
        assert len(set(back.values())) <= number
        for u, v in graph.edges:
            assert back[u] != back[v]


def test_rabin_to_colouring_on_vertex_tracker():
    # the one-state-per-vertex automaton yields the discrete colouring
    back = rabin_to_colouring(edge_alternation_automaton(K3), K3)
    assert sorted(back.values()) == [1, 2, 3]


def test_rabin_to_colouring_reads_the_cycles_behind_a_tail():
    # letter 1 runs 0 -> 1 -> 2 -> 2: state 1 is on its path but not on its
    # cycle, so vertices 1 and 3 (both ending in state 2) share a class
    rows = (((1, 0), (0, 0), (2, 0)), ((2, 0), (0, 0), (2, 0)), ((2, 0), (0, 0), (2, 0)))
    aut = Automaton(3, 0, Alphabet(("1", "2", "3")), Alphabet(("x",)), rows,
                    ParityAcceptance((0,)))
    assert rabin_to_colouring(aut, P3) == {1: 1, 2: 2, 3: 1}


def test_rabin_to_colouring_rejects_wrong_language():
    # a P3 colouring collapses vertices 1 and 3; on K3 that pair is an edge
    _, witness = chromatic_number(P3)
    aut = colouring_to_rabin(P3, witness)
    with pytest.raises(PropertyViolation):
        rabin_to_colouring(aut, K3)


def test_improper_colouring_rejected():
    with pytest.raises(PropertyViolation):
        colouring_to_rabin(K3, {1: 1, 2: 1, 3: 2})
    with pytest.raises(MalformedInput):
        colouring_to_rabin(K3, {1: 1, 2: 2})


def test_boolean_colours_rejected():
    with pytest.raises(MalformedInput, match="positive integer"):
        colouring_to_rabin(P3, {1: True, 2: 2, 3: True})


def test_edge_alternation_is_rabin_structure():
    for graph in (P3, K3, C4):
        assert check_rabin_typeable(edge_alternation_automaton(graph)).typeable


def test_colouring_json_roundtrip():
    colouring = {1: 2, 2: 1, 3: 2}
    data = colouring_to_json(colouring)
    assert data == {"size": 2, "assignment": [2, 1, 2]}
    assert colouring_from_json(data, P3) == colouring
    with pytest.raises(MalformedInput):
        colouring_from_json({"assignment": [1, 2]}, P3)
    with pytest.raises(MalformedInput):
        colouring_from_json({"assignment": [1, 0, 1]}, P3)
    with pytest.raises(MalformedInput):
        colouring_from_json([1, 2, 1], P3)
