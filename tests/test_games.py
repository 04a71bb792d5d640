"""Arenas, parity solving, Muller game strategies and memory structures."""
import random
import time
from math import prod

import pytest

from mullertools.core import (Alphabet, MalformedInput, MullerCondition,
                              PreconditionViolation, PropertyViolation,
                              ScaleGuard)
from mullertools.games import (Arena, MemoryStructure, ParityGame,
                               StrategyTable, _exists_winning_table,
                               _zielonka, arena_from_json,
                               arena_to_json, at_least_two_colours,
                               exactly_two_colours,
                               min_chromatic_memory_exhaustive, muller_regions,
                               product_with_parity, separation_chromatic_memory,
                               separation_condition, separation_game,
                               separation_general_memory, solve_muller_game,
                               solve_parity_game, strategy_from_json,
                               strategy_to_json, two_cycle_game,
                               two_state_memory_min2, verify_strategy)
from mullertools.rabin import canonical_structures, min_rabin_size
from mullertools.zielonka import (general_memory, memory_requirements,
                                  parity_automaton)

from generators import random_arena, random_condition, random_solvable_arena
from oracles import (brute_min_chromatic_memory, full_parity_product,
                     parity_strategy_wins, positional_parity_winner,
                     strategy_wins)

AB = Alphabet(("a", "b"))


def adam_mediated_arena() -> Arena:
    """Two colour-player vertices whose base colours disagree, with every
    path between them routed through opponent vertices."""
    colours = AB
    eve = (True, True, False, False)
    edges = (
        (0, 2, 0),  # colour player, colour a
        (1, 2, 1),  # colour player, colour b
        (1, 3, 0),  # colour player, colour a
        (2, 1, 0),  # opponent, colour a
        (3, 0, 0),  # opponent, colour a
    )
    return Arena(colours, eve, 0, edges)


def test_arena_validation():
    with pytest.raises(MalformedInput):
        Arena(AB, (True,), 0, ())  # no outgoing edge
    with pytest.raises(MalformedInput):
        Arena(AB, (True,), 1, ((0, 0, 0),))  # initial out of range
    with pytest.raises(MalformedInput):
        Arena(AB, (True,), 0, ((0, 1, 0),))  # endpoint out of range
    with pytest.raises(MalformedInput):
        Arena(AB, (True,), 0, ((0, 0, 2),))  # colour out of range
    with pytest.raises(MalformedInput):
        Arena(AB, (True, True), 0,
              ((0, 1, None), (1, 0, None)))  # silent cycle
    # a silent edge on a coloured cycle is fine
    arena = Arena(AB, (True, True), 0, ((0, 1, None), (1, 0, 0)))
    assert not arena.epsilon_free
    assert arena.out_edges(0) == (0,)


def test_two_vertex_silent_cycle_is_refused():
    # 0 -> 1 is coloured; 1 and 2 reach each other over silent edges only
    edges = ((0, 1, 0), (1, 2, None), (2, 1, None), (2, 0, 1))
    with pytest.raises(MalformedInput, match="^arena has a cycle of silent edges only$"):
        Arena(AB, (True, False, True), 0, edges)
    # colouring one of the two silent edges breaks the cycle
    assert not Arena(AB, (True, False, True), 0, edges[:2] + ((2, 1, 0),) + edges[3:]).epsilon_free


def test_memory_structure_validation():
    with pytest.raises(MalformedInput):
        MemoryStructure("weird", 1, 0, ((0,),))
    with pytest.raises(MalformedInput):
        MemoryStructure("general", 1, 1, ((0,),))
    with pytest.raises(MalformedInput):
        MemoryStructure("general", 2, 0, ((0,),))  # one row missing
    with pytest.raises(MalformedInput):
        MemoryStructure("general", 1, 0, ((2,),))  # target out of range
    mem = MemoryStructure("chromatic", 2, 0, ((1, 0), (0, 1)))
    assert mem.step(0, 7, None) == 0  # silent edges leave colour memory alone
    assert mem.step(0, 7, 0) == 1


def test_strategy_table_validation():
    with pytest.raises(MalformedInput):
        StrategyTable(((0, 0, 1), (0, 0, 2)))
    table = StrategyTable.from_dict({(0, 0): 3})
    assert table.move(0, 0) == 3
    with pytest.raises(MalformedInput):
        table.move(1, 0)


def test_parity_game_validation():
    with pytest.raises(MalformedInput):
        ParityGame((True,), 0, ())
    with pytest.raises(MalformedInput):
        ParityGame((True,), 0, ((0, 0, -1),))


def random_parity_game(rng, sizes=(2, 3, 4), priorities=4):
    n = rng.choice(sizes)
    eve = tuple(rng.random() < 0.5 for _ in range(n))
    edges = []
    for v in range(n):
        for _ in range(rng.randrange(1, 3)):
            edges.append((v, rng.randrange(n), rng.randrange(priorities)))
    return ParityGame(eve, 0, tuple(edges))


# Vertex 0 belongs to adam and has a top-priority edge into eve's attractor
# (vertex 1, held by its own top loop) and an edge to vertex 2, from which
# adam closes a cycle of top priority 3.  Counting that top edge once as a
# seed and again when vertex 1 joins pulls vertex 0, then 2, into eve's
# attractor, and eve would win everywhere.
DOUBLE_COUNT_GAME = ParityGame((False, True, False), 0,
                               ((1, 1, 4), (0, 1, 4), (0, 2, 0), (2, 0, 3)))


def test_solve_parity_game_against_oracle():
    rng = random.Random(101)
    games = [random_parity_game(rng) for _ in range(120)]
    games += [random_parity_game(rng, range(5, 9), 8) for _ in range(100)]
    games.append(DOUBLE_COUNT_GAME)
    for game in games:
        solution = solve_parity_game(game)
        out_edges = [list(game.out_edges(v)) for v in range(len(game.eve))]
        for start in range(len(game.eve)):
            want = positional_parity_winner(game.eve, game.edges,
                                            out_edges, start)
            assert (start in solution.eve_region) == want
        assert solution.eve_region | solution.adam_region == set(range(len(game.eve)))
        assert not solution.eve_region & solution.adam_region
        assert parity_strategy_wins(game.eve, game.edges, solution.eve_region,
                                    solution.eve_strategy, 0)
        assert parity_strategy_wins(game.eve, game.edges, solution.adam_region,
                                    solution.adam_strategy, 1)
    assert solve_parity_game(DOUBLE_COUNT_GAME).adam_region == {0, 2}


def test_parity_solver_is_not_bounded_by_recursion_depth():
    # vertex i has an edge of priority 0 to the next one and a self-loop of
    # priority i + 1, and eve owns the even vertices, so each player's loops
    # carry the other's parity: every play keeps moving and eve wins
    # everywhere.  The decomposition removes one priority per level, far
    # deeper than Python's recursion limit.
    n = 1500
    eve = tuple(i % 2 == 0 for i in range(n))
    ring = tuple(edge for i in range(n) for edge in ((i, (i + 1) % n, 0), (i, i, i + 1)))
    solution = solve_parity_game(ParityGame(eve, 0, ring))
    assert solution.eve_region == set(range(n)) and not solution.adam_region
    assert parity_strategy_wins(eve, ring, solution.eve_region, solution.eve_strategy, 0)
    # an adam vertex off the ring with a loop of the top, odd priority and
    # an edge into the ring: adam wins there by looping, and only there
    eve += (False,)
    edges = ring + ((n, n, 2 * n + 1), (n, 0, 0))
    solution = solve_parity_game(ParityGame(eve, 0, edges))
    assert solution.eve_region == set(range(n)) and solution.adam_region == {n}
    assert parity_strategy_wins(eve, edges, solution.eve_region, solution.eve_strategy, 0)
    assert parity_strategy_wins(eve, edges, solution.adam_region, solution.adam_strategy, 1)
    assert solution.adam_strategy[n] == len(ring)


def test_parity_strategies_are_winning():
    rng = random.Random(103)
    checked = 0
    while checked < 40:
        game = random_parity_game(rng)
        solution = solve_parity_game(game)
        if not solution.eve_region:
            continue
        checked += 1
        # pin the colour player to her strategy and let the opponent range
        # over all positional answers: every lasso must have even maximum
        out_edges = [list(game.out_edges(v)) for v in range(len(game.eve))]
        pinned = [[solution.eve_strategy[v]] if game.eve[v] and v in solution.eve_strategy
                  else out_edges[v] for v in range(len(game.eve))]
        all_adam = tuple(False for _ in game.eve)  # every vertex picks freely
        for start in solution.eve_region:
            assert positional_parity_winner(all_adam, game.edges, pinned, start)


def test_product_with_parity_shape():
    # 0 -a-> 0, 0 -b-> 1, 1 -a-> 1; only the a-loop enters vertex 0, and
    # reading a keeps the automaton in state 0, so (0, 1) is never built
    arena = Arena(AB, (True, False), 0, ((0, 0, 0), (0, 1, 1), (1, 1, 0)))
    aut = parity_automaton(at_least_two_colours(AB))
    assert aut.n_states == 2 and aut.initial == 0
    assert aut.delta[0][0][0] == 0 and aut.delta[0][1][0] == 1
    product = product_with_parity(arena, aut)
    # seeds first in vertex order, then breadth first
    assert product.index == {(0, 0): 0, (1, 0): 1, (1, 1): 2}
    assert product.vertex(0, 1) is None
    assert product.game.eve == (True, False, False)
    assert len(product.game.edges) == 4
    assert product.game.initial == product.vertex(arena.initial, aut.initial)


def test_reachable_product_matches_full_product():
    rng = random.Random(113)
    winners = []
    for _ in range(150):
        arena = random_arena(rng, rng.randint(2, 6), 3, epsilon_free=False)
        cond = random_condition(rng, 3)
        aut = parity_automaton(cond)
        nq, q0 = aut.n_states, aut.initial
        product = product_with_parity(arena, aut)
        full = full_parity_product(arena, aut)
        # the built pairs are exactly those the full product reaches from
        # the seeds, so the product holds every seed and is closed
        reached = {v * nq + q0 for v in range(arena.n_vertices)}
        frontier = list(reached)
        while frontier:
            node = frontier.pop()
            for e in full.out_edges(node):
                dst = full.edges[e][1]
                if dst not in reached:
                    reached.add(dst)
                    frontier.append(dst)
        assert set(product.index) == {divmod(node, nq) for node in reached}
        assert len(product.game.eve) == len(product.index)
        solution = solve_parity_game(product.game)
        full_solution = solve_parity_game(full)
        for v in range(arena.n_vertices):
            assert ((product.vertex(v, q0) in solution.eve_region)
                    == (v * nq + q0 in full_solution.eve_region))
        winner, memory, table = solve_muller_game(arena, cond)
        assert (winner == "eve") == (full.initial in full_solution.eve_region)
        if winner == "eve":
            assert verify_strategy(arena, cond, memory, table)
        winners.append(winner)
    assert 30 < winners.count("eve") < 120


def solve_walk(arena, memory, table, aut):
    """Breadth-first walk of the configurations that a play from (initial,
    0) reaches under the table: the configurations in order of discovery
    and the automaton state that each memory state met stands for, checked
    to be one state per memory state."""
    letter = [aut.input_alphabet.position(sym) for sym in arena.colours.symbols]
    stands_for = {0: aut.initial}
    queue = [(arena.initial, 0)]
    for v, m in queue:
        q = stands_for[m]
        options = [table.move(v, m)] if arena.eve[v] else arena.out_edges(v)
        for e in options:
            _, dst, colour = arena.edges[e]
            m2 = memory.step(m, e, colour)
            q2 = q if colour is None else aut.delta[q][letter[colour]][0]
            assert stands_for.setdefault(m2, q2) == q2
            if (dst, m2) not in queue:
                queue.append((dst, m2))
    assert len(set(stands_for.values())) == len(stands_for)
    return queue, stands_for


def test_solve_table_lists_only_winning_pairs():
    # the table holds a move exactly for the colour-player configurations
    # that a play from (initial, 0) reaches under it, the memory only the
    # automaton states that such plays meet, numbered in order of first
    # visit, and each move is the solver's choice on the region product
    rng = random.Random(137)
    wins = 0
    for _ in range(60):
        arena = random_arena(rng, rng.randint(2, 6), 3, epsilon_free=False)
        cond = random_condition(rng, 3)
        winner, memory, table = solve_muller_game(arena, cond)
        if winner != "eve":
            continue
        wins += 1
        aut = parity_automaton(cond)
        product = product_with_parity(arena, aut, muller_regions(arena, cond)[0])
        solution = solve_parity_game(product.game)
        reached, stands_for = solve_walk(arena, memory, table, aut)
        owned = [(v, m) for v, m in reached if arena.eve[v]]
        assert sorted((v, m) for v, m, _ in table.moves) == sorted(owned)
        assert list(dict.fromkeys(m for _, m in reached)) == list(range(memory.size))
        for v, m in owned:
            node = product.vertex(v, stands_for[m])
            assert table.move(v, m) == product.edge_origin[solution.eve_strategy[node]]
        assert verify_strategy(arena, cond, memory, table)
    assert wins > 15


def test_region_product_is_won_everywhere():
    # over the colour player's region, the product holds exactly the pairs
    # of the full product reachable from (v, initial state), v in the
    # region, through region vertices only; she wins all of them, and the
    # strategy that solve returns verifies with at most as many memory
    # states as the automaton has
    rng = random.Random(173)
    regions = 0
    for arena, cond in muller_draws(rng, 2000):
        region = muller_regions(arena, cond)[0]
        if not region:
            continue
        regions += 1
        if arena.initial not in region:
            arena = Arena(arena.colours, arena.eve, min(region), arena.edges)
        aut = parity_automaton(cond)
        nq, q0 = aut.n_states, aut.initial
        product = product_with_parity(arena, aut, region)
        full = full_parity_product(arena, aut)
        reached = {v * nq + q0 for v in region}
        frontier = list(reached)
        while frontier:
            node = frontier.pop()
            for e in full.out_edges(node):
                dst = full.edges[e][1]
                if dst // nq in region and dst not in reached:
                    reached.add(dst)
                    frontier.append(dst)
        assert set(product.index) == {divmod(node, nq) for node in reached}
        solution = solve_parity_game(product.game)
        assert solution.eve_region == set(range(len(product.game.eve)))
        winner, memory, table = solve_muller_game(arena, cond)
        assert winner == "eve" and memory.size <= nq
        assert verify_strategy(arena, cond, memory, table)
    assert regions > 1000


def test_region_product_needs_the_initial_vertex():
    arena = two_cycle_game(("a",), ("b",), AB)
    aut = parity_automaton(at_least_two_colours(AB))
    with pytest.raises(PreconditionViolation, match="initial vertex 0"):
        product_with_parity(arena, aut, frozenset({1}))


def test_region_product_refuses_a_non_vertex():
    # 99 lies past the last vertex and -1 before the first: the one ended in
    # an IndexError, the other read the last vertex's edges for (-1, q0)
    arena = two_cycle_game(("a",), ("b",), AB)
    aut = parity_automaton(at_least_two_colours(AB))
    for region, stray in ((frozenset({0, 99}), "99"), (frozenset({-1, 0}), "-1")):
        with pytest.raises(PreconditionViolation, match=f"^region holds {stray},"):
            product_with_parity(arena, aut, region)


def test_product_without_a_region_is_the_product_on_every_vertex():
    rng = random.Random(2027)
    for _ in range(200):
        arena = random_arena(rng, rng.randint(1, 7), 3, epsilon_free=False)
        aut = parity_automaton(random_condition(rng, 3))
        whole = product_with_parity(arena, aut)
        spelled = product_with_parity(arena, aut, frozenset(range(arena.n_vertices)))
        assert whole.index == spelled.index
        assert whole.game == spelled.game
        assert whole.edge_origin == spelled.edge_origin


def test_arena_colour_missing_from_the_condition_has_one_message():
    # colour c of the arena is not a letter of the condition over {a, b}
    arena = two_cycle_game(("a", "c"), ("b",), Alphabet(("a", "b", "c")))
    cond = at_least_two_colours(AB)
    memory = MemoryStructure("chromatic", 1, 0, ((0, 0, 0),))
    table = StrategyTable.from_dict({(0, 0): 0, (1, 0): 1})
    message = "arena colour 'c' missing from the condition"
    for call in (lambda: muller_regions(arena, cond),
                 lambda: solve_muller_game(arena, cond),
                 lambda: verify_strategy(arena, cond, memory, table),
                 lambda: min_chromatic_memory_exhaustive(arena, cond, 2)):
        with pytest.raises(MalformedInput, match=f"^{message}$"):
            call()


def test_product_requires_parity():
    arena = two_cycle_game(("a",), ("b",), AB)
    from mullertools.core import GenBuchiAcceptance, Automaton
    aut = Automaton(1, 0, AB, AB, (((0, 0), (0, 1)),),
                    GenBuchiAcceptance((0b11,)))
    with pytest.raises(PreconditionViolation):
        product_with_parity(arena, aut)


def test_solve_muller_game_two_cycles():
    arena = two_cycle_game(("a",), ("b",), AB)
    cond = at_least_two_colours(AB)
    winner, memory, table = solve_muller_game(arena, cond)
    assert winner == "eve"
    assert memory.kind == "chromatic"
    assert verify_strategy(arena, cond, memory, table)


def test_solve_muller_game_adam_wins():
    # one vertex, both edges coloured a: two colours can never appear
    arena = Arena(AB, (True,), 0, ((0, 0, 0), (0, 0, 0)))
    winner, memory, table = solve_muller_game(arena, at_least_two_colours(AB))
    assert winner == "adam"
    assert memory is None and table is None


def test_solve_refuses_a_missing_colour_before_the_tree_guard():
    arena = Arena(AB, (False,), 0, ((0, 0, 0), (0, 0, 1)))
    wide = Alphabet(tuple("bcdefghijklmnopqr"))  # 17 letters, no a
    with pytest.raises(MalformedInput, match="arena colour 'a' missing"):
        solve_muller_game(arena, MullerCondition(wide, frozenset()))
    with pytest.raises(ScaleGuard, match="alphabet of 18 symbols, limit 16"):
        solve_muller_game(arena, MullerCondition(Alphabet(("a",) + wide.symbols),
                                                 frozenset()))


def test_solver_strategies_verify_on_random_arenas():
    rng = random.Random(107)
    for _ in range(25):
        arena = random_arena(rng, rng.choice((2, 3, 4, 5)), rng.choice((2, 3)),
                             epsilon_free=rng.random() < 0.5)
        cond = at_least_two_colours(arena.colours)
        winner, memory, table = solve_muller_game(arena, cond)
        if winner == "eve":
            assert verify_strategy(arena, cond, memory, table)


def test_muller_game_determinacy():
    # swapping owners and complementing the condition swaps the winner
    from mullertools.core import complement_condition
    rng = random.Random(109)
    for _ in range(60):
        arena = random_arena(rng, rng.randint(1, 10), rng.randint(2, 5))
        cond = exactly_two_colours(arena.colours)
        winner, _, _ = solve_muller_game(arena, cond)
        flipped = Arena(arena.colours, tuple(not e for e in arena.eve),
                        arena.initial, arena.edges)
        other, _, _ = solve_muller_game(flipped, complement_condition(cond))
        assert (winner == "eve") == (other == "adam")


# Vertex 0 belongs to eve and moves to 1 with colour a; vertex 1 belongs to
# adam, who loops on b (rejecting) or returns with a.  Eve's attractor to the
# a-edges, the colours outside the child {b}, holds vertex 0 through the edge
# 0 -a-> 1.  Counting the seed edge 1 -a-> 0 once as a seed and again when
# vertex 0 joins pulls vertex 1 in, and eve would win everywhere.
DOUBLE_COUNT_ARENA = Arena(AB, (True, False), 0, ((0, 1, 0), (1, 1, 1), (1, 0, 0)))


def muller_draws(rng, count):
    """Random arenas of 1-12 vertices over 1-6 colours, silent edges in half,
    and random conditions, a fifth of them over one letter more."""
    for _ in range(count):
        g = rng.randint(1, 6)
        arena = random_arena(rng, rng.randint(1, 12), g, epsilon_free=rng.random() < 0.5)
        yield arena, random_condition(rng, g + (rng.random() < 0.2))


def test_muller_regions_match_the_parity_product():
    # the regions decided on the arena against the parity solution of the
    # reachable product and, where positional strategies of the full product
    # are few enough to enumerate, against the enumeration
    rng = random.Random(157)
    draws = [(DOUBLE_COUNT_ARENA, MullerCondition(AB, frozenset({0b01, 0b11})))]
    draws += muller_draws(rng, 2000)
    enumerated, winners = 0, []
    for arena, cond in draws:
        eve, adam = muller_regions(arena, cond)
        vertices = range(arena.n_vertices)
        assert eve | adam == set(vertices) and not eve & adam
        aut = parity_automaton(cond)
        product = product_with_parity(arena, aut)
        solution = solve_parity_game(product.game)
        assert eve == {v for v in vertices
                       if product.vertex(v, aut.initial) in solution.eve_region}
        winners.append(arena.initial in eve)
        if arena.n_vertices > 5:
            continue
        full = full_parity_product(arena, aut)
        out_edges = [list(full.out_edges(node)) for node in range(len(full.eve))]
        if prod(map(len, out_edges)) > 512:
            continue
        enumerated += 1
        for v in vertices:
            start = v * aut.n_states + aut.initial
            assert (v in eve) == positional_parity_winner(full.eve, full.edges,
                                                          out_edges, start)
    assert muller_regions(*draws[0]) == (frozenset(), frozenset({0, 1}))
    assert enumerated >= 300 and 600 < winners.count(True) < 1400


def test_colour_player_choices_win_when_her_nodes_do_not_branch():
    # on a half-positional condition every accepting node of the tree has
    # at most one child, so the solver's choices for the colour player are a
    # positional strategy, winning from every vertex of her region; the
    # opponent's nodes may branch, so the trees need not be chains
    rng = random.Random(1997)
    arenas = checks = branching = 0
    while arenas < 2000:
        arena, cond = next(muller_draws(rng, 1))
        if not memory_requirements(cond).half_positional:
            continue
        arenas += 1
        labels = [cond.alphabet.full_mask]
        for label in labels:
            labels += cond.children(label)
        branching += any(len(cond.children(label)) > 1 for label in labels)
        bit = [cond.alphabet.bit(sym) for sym in arena.colours.symbols]
        src, dst, colours = zip(*((s, d, 0 if c is None else bit[c])
                                  for s, d, c in arena.edges))
        regions, choices = _zielonka(
            arena.eve, [arena.out_edges(v) for v in range(arena.n_vertices)],
            src, dst, colours, cond.alphabet.full_mask, cond.accepting.__contains__,
            cond.children)
        assert (frozenset(regions[0]), frozenset(regions[1])) == muller_regions(arena, cond)
        memory = MemoryStructure("chromatic", 1, 0, ((0,) * len(arena.colours),))
        table = StrategyTable.from_dict({(v, 0): e for v, e in choices[0].items()})
        for v in regions[0]:
            start = Arena(arena.colours, arena.eve, v, arena.edges)
            assert verify_strategy(start, cond, memory, table)
            checks += 1
    assert checks > 5000 and branching > 300


def test_verify_strategy_rejects_losing_table():
    arena = two_cycle_game(("a",), ("b",), AB)
    cond = at_least_two_colours(AB)
    stubborn = StrategyTable.from_dict({(0, 0): 0})  # always the a cycle
    memory = MemoryStructure("chromatic", 1, 0, ((0, 0),))
    assert not verify_strategy(arena, cond, memory, stubborn)


def test_verify_strategy_width_mismatch():
    arena = two_cycle_game(("a",), ("b",), AB)
    memory = MemoryStructure("chromatic", 1, 0, ((0, 0, 0),))
    table = StrategyTable.from_dict({(0, 0): 0})
    with pytest.raises(MalformedInput):
        verify_strategy(arena, at_least_two_colours(AB), memory, table)


def test_verify_strategy_matches_walk_oracle():
    rng = random.Random(167)
    verdicts = []
    for _ in range(150):
        arena = random_arena(rng, rng.randint(2, 6), 3, epsilon_free=False)
        cond = random_condition(rng, 3)
        if rng.random() < 0.5:  # a condition most strategies win
            cond = MullerCondition(cond.alphabet, cond.accepting | {1, 2, 4})
        size = rng.choice((1, 2))
        memory = MemoryStructure("chromatic", size, 0, tuple(
            tuple(rng.randrange(size) for _ in range(3)) for _ in range(size)))
        moves = {(v, m): rng.choice(arena.out_edges(v))
                 for v in range(arena.n_vertices) if arena.eve[v] for m in range(size)}
        good = verify_strategy(arena, cond, memory, StrategyTable.from_dict(moves))
        assert good == strategy_wins(arena, cond, memory, moves)
        verdicts.append(good)
    assert 20 < sum(verdicts) < 130
    # 4-5 colours, dense families and opponent-only arenas of three vertices
    # with two to four edges each: a rejecting cycle then often lies only
    # inside an accepting component of a rejecting label, two levels below a
    # top-level component of the alternating cycle decomposition
    verdicts = []
    for _ in range(2000):
        n_colours = rng.choice((4, 5))
        colours = Alphabet(tuple("abcde"[:n_colours]))
        edges = tuple((v, rng.randrange(3), rng.randrange(n_colours))
                      for v in range(3) for _ in range(rng.randint(2, 4)))
        arena = Arena(colours, (False,) * 3, 0, edges)
        cond = MullerCondition(colours, frozenset(
            bits for bits in range(1, 1 << n_colours) if rng.random() < 0.85))
        size = rng.choice((1, 2))
        memory = MemoryStructure("chromatic", size, 0, tuple(
            tuple(rng.randrange(size) for _ in range(n_colours)) for _ in range(size)))
        good = verify_strategy(arena, cond, memory, StrategyTable(()))
        assert good == strategy_wins(arena, cond, memory, {})
        verdicts.append(good)
    assert 300 < sum(verdicts) < 1000


def test_verify_colour_guard_follows_component_order():
    # vertex 0 loops on colour c0 and leads to vertex 1, which loops on all
    # seventeen colours; components are judged in order of their smallest
    # vertex, and the limit is the tree's, 16 letters
    colours = Alphabet(tuple(f"c{i}" for i in range(17)))
    edges = ((0, 0, 0), (0, 1, 0)) + tuple((1, 1, c) for c in range(17))
    arena = Arena(colours, (False, False), 0, edges)
    memory = MemoryStructure("chromatic", 1, 0, ((0,) * 17,))
    table = StrategyTable(())
    everything = frozenset(range(1, 1 << 17))
    loses_first = MullerCondition(colours, everything - {1})
    assert not verify_strategy(arena, loses_first, memory, table)
    with pytest.raises(ScaleGuard, match="17 colours in one component, limit 16"):
        verify_strategy(arena, MullerCondition(colours, everything), memory, table)


def test_verify_decides_a_sixteen_colour_ring_within_a_second():
    # one strongly connected arena of 60 vertices: a ring carrying all
    # sixteen colours, random chords out of the opponent's vertices and a
    # colour-0 self-loop at vertex 0; the colour player's vertices have
    # only their ring edge.  Every cycle wins, or every one but that loop.
    rng = random.Random(16)
    g, n = 16, 60
    ring = list(range(g)) + [rng.randrange(g) for _ in range(n - g)]
    rng.shuffle(ring)
    eve = tuple(v % 3 == 1 for v in range(n))
    edges = [(v, (v + 1) % n, ring[v]) for v in range(n)] + [(0, 0, 0)]
    edges += [(v, rng.randrange(n), rng.randrange(g))
              for v in range(n) if not eve[v] and rng.random() < 0.5]
    arena = Arena(Alphabet(tuple(f"c{i}" for i in range(g))), eve, 0, tuple(edges))
    memory = MemoryStructure("chromatic", 1, 0, ((0,) * g,))
    table = StrategyTable.from_dict({(v, 0): v for v in range(n) if eve[v]})
    every = range(1, 1 << g)
    began = time.perf_counter()
    assert verify_strategy(arena, MullerCondition(arena.colours, frozenset(every)),
                           memory, table)
    assert time.perf_counter() - began < 1.0
    assert not verify_strategy(arena, MullerCondition(arena.colours, frozenset(every[1:])),
                               memory, table)


def test_verify_config_guard_fires_while_building(monkeypatch):
    import mullertools.games as games
    arena, cond = separation_game(), separation_condition()
    memory, table = separation_chromatic_memory()
    monkeypatch.setattr(games, "MAX_CONFIGS", 14)
    assert verify_strategy(arena, cond, memory, table)
    monkeypatch.setattr(games, "MAX_CONFIGS", 13)
    with pytest.raises(ScaleGuard, match="configuration graph reached 14 nodes, limit 13"):
        verify_strategy(arena, cond, memory, table)
    # an empty table fails at the first colour-player vertex, which is only
    # the second configuration found: a limit of one stops the search first
    with pytest.raises(MalformedInput, match="no move"):
        verify_strategy(arena, cond, memory, StrategyTable(()))
    monkeypatch.setattr(games, "MAX_CONFIGS", 1)
    with pytest.raises(ScaleGuard, match="configuration graph reached 2 nodes, limit 1"):
        verify_strategy(arena, cond, memory, StrategyTable(()))


def test_condition_families():
    cond = exactly_two_colours(("a", "b", "c"))
    assert cond.admits(0b011) and cond.admits(0b110)
    assert not cond.admits(0b001) and not cond.admits(0b111)
    cond2 = at_least_two_colours(("a", "b", "c"))
    assert cond2.admits(0b011) and cond2.admits(0b111)
    assert not cond2.admits(0b100)


def test_separation_game_fixtures():
    arena = separation_game()
    cond = separation_condition()
    assert arena.n_vertices == 10
    assert len(arena.edges) == 15
    assert arena.epsilon_free
    winner, memory, table = solve_muller_game(arena, cond)
    assert winner == "eve"
    assert verify_strategy(arena, cond, memory, table)
    assert general_memory(cond) == 2


def test_separation_handcrafted_strategies():
    arena = separation_game()
    cond = separation_condition()
    chrom_mem, chrom_table = separation_chromatic_memory()
    assert chrom_mem.kind == "chromatic" and chrom_mem.size == 3
    assert verify_strategy(arena, cond, chrom_mem, chrom_table)
    gen_mem, gen_table = separation_general_memory()
    assert gen_mem.kind == "general" and gen_mem.size == 2
    assert verify_strategy(arena, cond, gen_mem, gen_table)


def test_exhaustive_chromatic_memory_tiny():
    arena = two_cycle_game(("a",), ("b",), AB)
    cond = at_least_two_colours(AB)
    assert min_chromatic_memory_exhaustive(arena, cond, 3) == 2
    # impossible game: both cycles produce only colour a
    hopeless = Arena(AB, (True,), 0, ((0, 0, 0), (0, 0, 0)))
    assert min_chromatic_memory_exhaustive(hopeless, cond, 2) is None


def test_exhaustive_budget_below_one_is_refused():
    from mullertools.core import PreconditionViolation
    arena = two_cycle_game(("a",), ("b",), AB)
    with pytest.raises(PreconditionViolation):
        min_chromatic_memory_exhaustive(arena, at_least_two_colours(AB), 0)


def test_exhaustive_scale_guard():
    arena = separation_game()
    with pytest.raises(ScaleGuard, match="10 vertices × 100 states = 1000, limit 400"):
        min_chromatic_memory_exhaustive(arena, separation_condition(), 100)
    colours = Alphabet(tuple(f"c{i}" for i in range(9)))
    nine = Arena(colours, (True,), 0, tuple((0, 0, c) for c in range(9)))
    with pytest.raises(ScaleGuard, match="9 colours, limit 8"):
        min_chromatic_memory_exhaustive(nine, at_least_two_colours(colours), 1)


def test_exhaustive_memory_matches_brute_force():
    rng = random.Random(131)
    answers = []
    for _ in range(150):
        g = rng.choice((2, 3))
        arena = random_arena(rng, rng.randint(2, 4), g, epsilon_free=False)
        cond = random_condition(rng, g)
        if rng.random() < 0.5:  # single colours lose, so memory often pays
            cond = MullerCondition(cond.alphabet, frozenset(
                s for s in range(1, 1 << g)
                if s.bit_count() >= 2 and (s in cond.accepting or rng.random() < 0.7)))
        found = min_chromatic_memory_exhaustive(arena, cond, 2)
        assert found == brute_min_chromatic_memory(arena, cond, 2)
        answers.append(found)
    assert answers.count(1) > 20 and answers.count(2) > 3 and answers.count(None) > 20


def memory_search_draws():
    """Random (arena, condition, budget) triples for the memory search: half
    with silent edges, some conditions over one letter beyond the arena's
    colours, budgets up to 3 on 2 colours and up to 2 on 3 (the brute-force
    oracle enumerates 3-state tables on 3 colours for up to a minute)."""
    rng = random.Random(151)
    for _ in range(120):
        g = rng.choice((2, 3))
        arena = random_arena(rng, rng.randint(2, 3), g, epsilon_free=rng.random() < 0.5)
        cond = random_condition(rng, g + (rng.random() < 0.3))
        if rng.random() < 0.5:  # mostly no single colour wins, so memory pays
            cond = MullerCondition(cond.alphabet, frozenset(
                s for s in cond.accepting if s.bit_count() >= 2 or rng.random() < 0.3))
        yield arena, cond, rng.randint(1, 5 - g)


def rabin_size_on_arena_colours(arena, cond, budget):
    """Least Rabin structure size, up to budget, of the condition as it
    judges sets of the arena's colours."""
    symbols = arena.colours.symbols
    g = len(symbols)
    own = MullerCondition(arena.colours, frozenset(
        s for s in range(1, 1 << g)
        if cond.admits(cond.alphabet.bits(symbols[c] for c in range(g) if s >> c & 1))))
    return min_rabin_size(own, budget)[0]


def test_exhaustive_memory_matches_brute_force_on_both_theorem_paths():
    # at the least Rabin structure size r of the condition, one table search
    # on that structure answers r when it wins and None when it loses
    paths = {"wins": [], "loses": []}  # r of each draw that takes the path
    for arena, cond, budget in memory_search_draws():
        found = min_chromatic_memory_exhaustive(arena, cond, budget)
        assert found == brute_min_chromatic_memory(arena, cond, budget)
        r = rabin_size_on_arena_colours(arena, cond, budget)
        if r is not None and found == r:
            paths["wins"].append(r)
        elif r is not None and found is None:
            paths["loses"].append(r)
    for sizes in paths.values():
        assert len(sizes) >= 5 and max(sizes) >= 2


def test_exhaustive_memory_none_agrees_with_solver():
    # graded by the parity product, not by muller_regions, which the memory
    # search itself calls
    checked = 0
    for arena, cond, budget in memory_search_draws():
        if rabin_size_on_arena_colours(arena, cond, budget) is None:
            continue
        product = product_with_parity(arena, parity_automaton(cond))
        won = product.game.initial in solve_parity_game(product.game).eve_region
        found = min_chromatic_memory_exhaustive(arena, cond, budget)
        assert (found is None) == (not won)
        checked += 1
    assert checked >= 50


def test_separation_game_draws_no_three_state_table(monkeypatch):
    import mullertools.games as games
    sizes = []

    def counted(num_states, num_letters):
        for flat in canonical_structures(num_states, num_letters):
            sizes.append(num_states)
            yield flat

    searched = []
    table_search = games._exists_winning_table

    def counted_search(arena, memory, cond):
        searched.append(memory.size)
        return table_search(arena, memory, cond)

    monkeypatch.setattr(games, "canonical_structures", counted)
    monkeypatch.setattr(games, "_exists_winning_table", counted_search)
    assert min_chromatic_memory_exhaustive(separation_game(), separation_condition(), 3) == 3
    assert len(sizes) == 57 and 3 not in sizes
    # the Rabin-size answer comes from the structure search alone: one
    # table search per drawn table, none at size 3
    assert searched == sizes


def _child_calls(monkeypatch) -> list[int]:
    """Labels that core.zielonka_children is asked about from now on."""
    import mullertools.core as core
    calls: list[int] = []
    children = core.zielonka_children

    def counted(label, accepts):
        calls.append(label)
        return children(label, accepts)

    monkeypatch.setattr(core, "zielonka_children", counted)
    return calls


def test_solve_works_out_each_label_once(monkeypatch):
    # the arena's regions and the parity automaton both read the tree
    rng = random.Random(18)
    games = [(separation_game(), separation_condition())]
    while len(games) < 12:
        arena, cond = random_arena(rng, rng.randint(3, 7), 4), random_condition(rng, 4)
        if solve_muller_game(arena, cond)[0] == "eve":
            games.append((arena, MullerCondition(cond.alphabet, cond.accepting)))
    calls = _child_calls(monkeypatch)
    for arena, cond in games:
        calls.clear()
        assert solve_muller_game(arena, cond)[0] == "eve"
        assert calls and len(calls) == len(set(calls))


def test_memory_search_works_out_each_label_once(monkeypatch):
    # the winner, then the structure search's lower bound at every size
    calls = _child_calls(monkeypatch)
    assert min_chromatic_memory_exhaustive(separation_game(), separation_condition(), 3) == 3
    assert calls and len(calls) == len(set(calls))


def test_lost_game_draws_no_table(monkeypatch):
    # the opponent picks a single colour forever, so the colour player loses
    # with any memory; the condition's least Rabin structure has three
    # states, so without deciding the winner first sizes 1 and 2 would be
    # enumerated in full
    import mullertools.games as games
    drawn = []

    def counted(num_states, num_letters):
        for flat in canonical_structures(num_states, num_letters):
            drawn.append(flat)
            yield flat

    monkeypatch.setattr(games, "canonical_structures", counted)
    abc = Alphabet(("a", "b", "c"))
    arena = Arena(abc, (False,), 0, ((0, 0, 0), (0, 0, 1), (0, 0, 2)))
    assert min_chromatic_memory_exhaustive(arena, at_least_two_colours(abc), 4) is None
    assert drawn == []


def test_memory_search_sees_cycles_behind_the_choice():
    # the colour player's only edge enters an opponent vertex whose self-loop
    # produces b alone: the rejecting cycle avoids the chosen edge and is
    # made only of the opponent's edge expanded behind it
    arena = Arena(AB, (True, False), 0, ((0, 1, 0), (1, 1, 1)))
    cond = MullerCondition(AB, frozenset({0b01, 0b11}))
    memory = MemoryStructure("chromatic", 1, 0, ((0, 0),))
    assert not _exists_winning_table(arena, memory, cond)
    assert min_chromatic_memory_exhaustive(arena, cond, 2) is None


def test_memory_search_sees_a_rejecting_cycle_inside_an_accepting_component(monkeypatch):
    # the arena of the CI's lost.json, started at the colour player's
    # vertex: her only edge returns on a to the opponent, who loops on a or
    # moves back on b.  That choice closes one component producing {a, b},
    # which accepts, and the opponent keeps to its a-loop, a rejecting
    # alternating child
    import mullertools.games as games
    alternating, children = games.alternating_children, []

    def recorded(*args):
        children.append(alternating(*args))
        return children[-1]

    monkeypatch.setattr(games, "alternating_children", recorded)
    arena = Arena(AB, (False, True), 1, ((0, 0, 0), (0, 1, 1), (1, 0, 0)))
    cond = MullerCondition(AB, frozenset({0b11}))
    memory = MemoryStructure("chromatic", 1, 0, ((0, 0),))
    assert not _exists_winning_table(arena, memory, cond)
    assert [[cover for _, cover, _ in found] for found in children] == [[0b01]]
    assert min_chromatic_memory_exhaustive(arena, cond, 2) is None


def test_two_state_memory_on_adam_mediated_arena():
    arena = adam_mediated_arena()
    cond = at_least_two_colours(arena.colours)
    winner, _, _ = solve_muller_game(arena, cond)
    assert winner == "eve"
    memory, table = two_state_memory_min2(arena)
    assert memory.kind == "general" and memory.size == 2
    assert verify_strategy(arena, cond, memory, table)


def test_two_state_memory_random_arenas():
    rng = random.Random(113)
    for _ in range(15):
        arena = random_solvable_arena(rng, rng.choice((3, 4, 5, 6)), 3,
                                      at_least_two_colours, solve_muller_game)
        memory, table = two_state_memory_min2(arena)
        assert verify_strategy(arena, at_least_two_colours(arena.colours),
                               memory, table)


def test_two_state_memory_preconditions():
    silent = Arena(AB, (True, True), 0, ((0, 1, None), (1, 0, 0)))
    with pytest.raises(PreconditionViolation):
        two_state_memory_min2(silent)
    single = Alphabet(("a",))
    arena = Arena(single, (True,), 0, ((0, 0, 0),))
    with pytest.raises(PreconditionViolation):
        two_state_memory_min2(arena)
    hopeless = Arena(AB, (True,), 0, ((0, 0, 0),))
    with pytest.raises(PropertyViolation):
        two_state_memory_min2(hopeless)


def test_arena_json_roundtrip():
    rng = random.Random(127)
    for _ in range(10):
        arena = random_arena(rng, 4, 2, epsilon_free=False)
        cond = at_least_two_colours(arena.colours)
        back, back_cond = arena_from_json(arena_to_json(arena, cond))
        assert back.eve == arena.eve
        assert back.initial == arena.initial
        assert back.edges == arena.edges
        assert back.colours.symbols == arena.colours.symbols
        assert back_cond.accepting == cond.accepting
        bare, no_cond = arena_from_json(arena_to_json(arena))
        assert no_cond is None
        assert bare.eve == arena.eve


def test_arena_json_rejects_garbage():
    good = arena_to_json(separation_game())
    for mutate in (
            lambda d: d.pop("vertices"),
            lambda d: d["vertices"].__setitem__(0, {"id": 5, "owner": "eve"}),
            lambda d: d["vertices"][0].__setitem__("owner", "nobody"),
            lambda d: d.__setitem__("initial", "zero"),
            lambda d: d["edges"].__setitem__(0, {"from": 0}),
    ):
        data = arena_to_json(separation_game())
        mutate(data)
        with pytest.raises(MalformedInput):
            arena_from_json(data)
    assert arena_from_json(good)[0].n_vertices == 10


def test_strategy_json_roundtrip_both_kinds():
    arena = separation_game()
    for memory, table in (separation_chromatic_memory(),
                          separation_general_memory()):
        data = strategy_to_json(memory, table, arena)
        mem2, table2 = strategy_from_json(data, arena)
        assert mem2 == memory
        assert table2.moves == table.moves


def test_strategy_json_rejects_garbage():
    arena = separation_game()
    memory, table = separation_chromatic_memory()
    for mutate in (
            lambda d: d.pop("memory"),
            lambda d: d["memory"].__setitem__("kind", "telepathic"),
            lambda d: d["memory"]["update"].__setitem__(0, [0, "zz", 0]),
            lambda d: d["table"].__setitem__(0, {"vertex": 1}),
    ):
        data = strategy_to_json(memory, table, arena)
        mutate(data)
        with pytest.raises(MalformedInput):
            strategy_from_json(data, arena)


def test_memory_search_builds_one_tree_and_one_chromatic_number(monkeypatch):
    # the structure search runs on from size to size, so the lower bound of
    # min_rabin_size is worked out once per call, not once per size
    import mullertools.rabin as rabin
    import mullertools.zielonka as zielonka
    calls = {"tree": 0, "chi": 0}
    tree, chi = zielonka.zielonka_tree, rabin.chromatic_number

    def counted_tree(cond):
        calls["tree"] += 1
        return tree(cond)

    def counted_chi(graph):
        calls["chi"] += 1
        return chi(graph)

    monkeypatch.setattr(zielonka, "zielonka_tree", counted_tree)
    monkeypatch.setattr(rabin, "chromatic_number", counted_chi)
    assert min_chromatic_memory_exhaustive(separation_game(), separation_condition(), 3) == 3
    assert calls == {"tree": 1, "chi": 1}
