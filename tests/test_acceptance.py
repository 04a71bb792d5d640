"""End-to-end checks, one per headline behaviour, each with a printed
PASS/FAIL line and a wall-clock budget."""
import itertools
import random
import time
from contextlib import contextmanager

from mullertools.core import MullerCondition, PeriodicWord, accepts_up_word
from mullertools.games import (at_least_two_colours,
                               min_chromatic_memory_exhaustive,
                               separation_chromatic_memory,
                               separation_condition, separation_game,
                               separation_general_memory, solve_muller_game,
                               two_state_memory_min2, verify_strategy)
from mullertools.graphs import (SimpleGraph, chromatic_number,
                                edge_alternation_automaton,
                                graph_edge_condition)
from mullertools.rabin import (check_rabin_typeable, chromatic_memory,
                               min_rabin_size, muller_equivalent,
                               rabin_equivalent, synthesize_rabin_pairs)
from mullertools.reduction import (minimize_genbuchi, minimize_parity,
                                   zielonka_tree_from_parity)
from mullertools.zielonka import (general_memory, parity_automaton,
                                  trees_isomorphic, zielonka_tree)

from generators import (inflate, random_arena, random_condition,
                        random_muller_automaton, random_rabin_automaton,
                        random_recognizable_genbuchi, random_solvable_arena)
from oracles import alternation_accepted, automaton_cycle_sets


@contextmanager
def criterion(number: int, description: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed <= budget
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}"
          f" ({elapsed:.1f}s of {budget:.0f}s)")
    assert ok, f"criterion {number} exceeded its {budget}s budget"


def all_graphs_up_to(n_max: int) -> list[SimpleGraph]:
    """One representative per isomorphism class, every vertex count."""
    graphs = []
    for n in range(1, n_max + 1):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        seen = set()
        for bits in range(1 << len(pairs)):
            edges = tuple(p for i, p in enumerate(pairs) if bits >> i & 1)
            canon = min(
                tuple(sorted(tuple(sorted((perm[u - 1], perm[v - 1])))
                             for u, v in edges))
                for perm in itertools.permutations(range(1, n + 1)))
            if canon in seen:
                continue
            seen.add(canon)
            graphs.append(SimpleGraph(n, edges))
    return graphs


def test_criterion_1_structure_size_equals_chromatic_number():
    with criterion(1, "minimal structure size matches the chromatic number"
                      " on every graph with up to four vertices", 60):
        graphs = all_graphs_up_to(4)
        assert len(graphs) == 18
        for graph in graphs:
            number, _ = chromatic_number(graph)
            cond = graph_edge_condition(graph)
            size, witness = min_rabin_size(cond, number)
            assert size == number, (graph, size, number)
            assert check_rabin_typeable(witness).typeable


def test_criterion_2_tree_roundtrip_through_parity():
    with criterion(2, "condition tree survives the trip through its parity"
                      " automaton on 102 random conditions", 30):
        rng = random.Random(2024)
        for n_colours in (2, 3, 4):
            for _ in range(34):
                cond = random_condition(rng, n_colours)
                tree = zielonka_tree(cond)
                recovered = zielonka_tree_from_parity(parity_automaton(cond))
                assert trees_isomorphic(tree, recovered)


def test_criterion_3_parity_minimisation():
    with criterion(3, "parity minimisation reaches the leaf count and keeps"
                      " the language on every period up to length five", 60):
        rng = random.Random(3033)
        for _ in range(15):
            cond = random_condition(rng, 3)
            reference = parity_automaton(cond)
            big = inflate(reference, rng, copies=rng.choice((2, 3)))
            small = minimize_parity(big)
            assert small.n_states == zielonka_tree(cond).leaf_count()
            syms = cond.alphabet.symbols
            for length in range(1, 6):
                for period in itertools.product(syms, repeat=length):
                    word = PeriodicWord((), period)
                    assert (accepts_up_word(small, word)
                            == accepts_up_word(big, word))


def test_criterion_4_genbuchi_minimisation():
    with criterion(4, "fifty random recognisable generalised Buchi automata"
                      " collapse to one state with the same language", 30):
        rng = random.Random(4044)
        for _ in range(50):
            aut = random_recognizable_genbuchi(rng, rng.choice((2, 3, 4)),
                                               rng.choice((2, 3)),
                                               rng.choice((1, 2, 3)))
            small = minimize_genbuchi(aut)
            assert small.n_states == 1
            assert muller_equivalent(small, aut)


def test_criterion_5_separation_between_memory_kinds():
    with criterion(5, "the separation game needs two general but three"
                      " colour-driven memory states", 120):
        cond = separation_condition()
        arena = separation_game()
        assert general_memory(cond) == 2
        assert chromatic_memory(cond, 3) == 3
        assert min_chromatic_memory_exhaustive(arena, cond, 3) == 3
        gen_mem, gen_table = separation_general_memory()
        assert gen_mem.size == 2
        assert verify_strategy(arena, cond, gen_mem, gen_table)
        chrom_mem, chrom_table = separation_chromatic_memory()
        assert chrom_mem.size == 3
        assert verify_strategy(arena, cond, chrom_mem, chrom_table)


def test_criterion_6_two_state_memory():
    with criterion(6, "general memory grows with the colour count while two"
                      " states drive twenty random two-colour-target games", 60):
        for n in range(2, 7):
            cond = at_least_two_colours(tuple("abcdefgh"[:n]))
            assert general_memory(cond) == n
        rng = random.Random(6066)
        for _ in range(20):
            arena = random_solvable_arena(rng, rng.randrange(3, 13), 3,
                                          at_least_two_colours,
                                          solve_muller_game)
            memory, table = two_state_memory_min2(arena)
            assert memory.size == 2
            assert verify_strategy(arena, at_least_two_colours(arena.colours),
                                   memory, table)


def test_criterion_7_rabin_machinery_agreement():
    with criterion(7, "pairwise equivalence checks agree on 200 samples and"
                      " synthesised pairs keep the language on 100 more", 60):
        rng = random.Random(7077)
        for _ in range(200):
            a1 = random_rabin_automaton(rng, rng.choice((1, 2)), 2, 2,
                                        rng.choice((1, 2)))
            a2 = random_rabin_automaton(rng, rng.choice((1, 2)), 2, 2,
                                        rng.choice((1, 2)))
            assert rabin_equivalent(a1, a2) == muller_equivalent(a1, a2)
        typeable_seen = 0
        while typeable_seen < 100:
            aut = random_muller_automaton(rng, rng.choice((2, 3)), 2,
                                          rng.choice((2, 3)))
            report = check_rabin_typeable(aut)
            if not report.typeable:
                state, first, second = report.witness
                sets = automaton_cycle_sets(aut, state, "output")
                assert first in sets and second in sets
                assert not aut.acceptance.accepts(first)
                assert not aut.acceptance.accepts(second)
                assert aut.acceptance.accepts(first | second)
                continue
            rabin = synthesize_rabin_pairs(aut)
            assert muller_equivalent(aut, rabin)
            typeable_seen += 1


def test_criterion_8_vertex_tracker_language():
    with criterion(8, "the vertex-tracking automaton accepts exactly the"
                      " edge-settling words on every graph with up to three"
                      " vertices", 10):
        for graph in all_graphs_up_to(3):
            aut = edge_alternation_automaton(graph)
            syms = tuple(str(v) for v in range(1, graph.n_vertices + 1))
            for length in range(1, 5):
                for period in itertools.product(syms, repeat=length):
                    for prefix in ((), (syms[-1],)):
                        word = PeriodicWord(prefix, period)
                        want = alternation_accepted(graph.normalised_edges(),
                                                    prefix, period)
                        assert accepts_up_word(aut, word) == want
