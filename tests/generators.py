"""Seeded random instances shared by the test modules."""
from __future__ import annotations

import random

from mullertools.core import (Alphabet, Automaton, GenBuchiAcceptance,
                              MullerAcceptance, MullerCondition,
                              ParityAcceptance, RabinAcceptance,
                              build_automaton)
from mullertools.games import Arena

LETTERS = "abcdefghij"


def random_condition(rng: random.Random, n_colours: int) -> MullerCondition:
    alphabet = Alphabet(tuple(LETTERS[:n_colours]))
    full = alphabet.full_mask
    members = [bits for bits in range(1, full + 1) if rng.random() < 0.5]
    return MullerCondition(alphabet, frozenset(members))


def random_transitions(rng: random.Random, n_states: int, in_syms, out_syms):
    trans = {}
    for q in range(n_states):
        for a in in_syms:
            trans[(q, a)] = (rng.randrange(n_states), rng.choice(out_syms))
    return trans


def random_muller_automaton(rng: random.Random, n_states: int,
                            n_in: int, n_out: int) -> Automaton:
    in_syms = tuple(LETTERS[:n_in])
    out_syms = tuple(str(i) for i in range(n_out))
    cond = random_condition(rng, n_out)
    out_alpha = Alphabet(out_syms)
    acceptance = MullerAcceptance(MullerCondition(out_alpha, cond.accepting))
    return build_automaton(initial=0,
                           transitions=random_transitions(rng, n_states, in_syms, out_syms),
                           input_symbols=in_syms, output_symbols=out_syms,
                           acceptance=acceptance)


def random_rabin_automaton(rng: random.Random, n_states: int,
                           n_in: int, n_out: int, n_pairs: int) -> Automaton:
    in_syms = tuple(LETTERS[:n_in])
    out_syms = tuple(str(i) for i in range(n_out))
    full = (1 << n_out) - 1
    pairs = []
    for _ in range(n_pairs):
        first = rng.randrange(1, full + 1)
        second = rng.randrange(0, full + 1) & ~first
        pairs.append((first, second))
    return build_automaton(initial=0,
                           transitions=random_transitions(rng, n_states, in_syms, out_syms),
                           input_symbols=in_syms, output_symbols=out_syms,
                           acceptance=RabinAcceptance(tuple(pairs)))


def random_genbuchi_automaton(rng: random.Random, n_states: int,
                              n_in: int, n_out: int, n_sets: int) -> Automaton:
    in_syms = tuple(LETTERS[:n_in])
    out_syms = tuple(str(i) for i in range(n_out))
    full = (1 << n_out) - 1
    sets = tuple(rng.randrange(1, full + 1) for _ in range(n_sets))
    return build_automaton(initial=0,
                           transitions=random_transitions(rng, n_states, in_syms, out_syms),
                           input_symbols=in_syms, output_symbols=out_syms,
                           acceptance=GenBuchiAcceptance(sets))


def random_recognizable_genbuchi(rng: random.Random, n_states: int,
                                 n_in: int, n_sets: int) -> Automaton:
    """Generalised Buchi automaton whose language really is a conjunction of
    'meet this input set' constraints: outputs echo inputs, so the acceptance
    over outputs pulls back to the input letters regardless of the state
    structure."""
    in_syms = tuple(LETTERS[:n_in])
    full = (1 << n_in) - 1
    sets = tuple(rng.randrange(1, full + 1) for _ in range(n_sets))
    trans = {}
    for q in range(n_states):
        for a in in_syms:
            trans[(q, a)] = (rng.randrange(n_states), a)
    return build_automaton(initial=0, transitions=trans,
                           input_symbols=in_syms, output_symbols=in_syms,
                           acceptance=GenBuchiAcceptance(sets))


def inflate(aut: Automaton, rng: random.Random, copies: int) -> Automaton:
    """Language-preserving blow-up: duplicate every state, wire successors to
    random copies.  Outputs are untouched, so the language is unchanged."""
    in_syms = aut.input_alphabet.symbols
    out_syms = aut.output_alphabet.symbols
    trans = {}
    for q in range(aut.n_states):
        for i in range(copies):
            for a_pos, sym in enumerate(in_syms):
                nxt, out = aut.delta[q][a_pos]
                trans[((q, i), sym)] = ((nxt, rng.randrange(copies)),
                                        out_syms[out])
    return build_automaton(initial=(aut.initial, 0), transitions=trans,
                           input_symbols=in_syms, output_symbols=out_syms,
                           acceptance=aut.acceptance)


def random_arena(rng: random.Random, n_vertices: int, n_colours: int,
                 epsilon_free: bool = True) -> Arena:
    colours = Alphabet(tuple(LETTERS[:n_colours]))
    eve = tuple(rng.random() < 0.5 for _ in range(n_vertices))
    edges = []
    for v in range(n_vertices):
        for _ in range(rng.randrange(1, 4)):
            colour = rng.randrange(n_colours)
            target = rng.randrange(n_vertices)
            # silent edges only point to larger ids, so they never cycle
            if not epsilon_free and v < target and rng.random() < 0.3:
                colour = None
            edges.append((v, target, colour))
    arena = Arena(colours, eve, 0, tuple(edges))
    return arena


def random_solvable_arena(rng: random.Random, n_vertices: int, n_colours: int,
                          condition, solver) -> Arena:
    """Re-rolls until the colour player wins from the initial vertex."""
    for _ in range(2000):
        arena = random_arena(rng, n_vertices, n_colours)
        cond = condition(arena.colours)
        winner, _, _ = solver(arena, cond)
        if winner == "eve":
            return arena
    raise AssertionError("no solvable arena found in 2000 draws")


def a_then_b(acceptance) -> Automaton:
    """'Infinitely often a immediately followed by b' over {a, b, c}: the
    state remembers whether the last letter was a, and the step a->b emits
    x, everything else y.  The language depends on the order of letters, not
    only on the set seen infinitely often."""
    trans = {(0, "a"): (1, "y"), (0, "b"): (0, "y"), (0, "c"): (0, "y"),
             (1, "a"): (1, "y"), (1, "b"): (0, "x"), (1, "c"): (0, "y")}
    return build_automaton(initial=0, transitions=trans, input_symbols="abc",
                           output_symbols="xy", acceptance=acceptance)


def random_parity_automaton(rng: random.Random, n_states: int, n_in: int,
                            top_priority: int) -> Automaton:
    """Random targets, and one output colour per transition with a random
    priority up to top_priority."""
    in_syms = tuple(LETTERS[:n_in])
    n_out = n_states * n_in
    trans = {(q, a): (rng.randrange(n_states), str(q * n_in + i))
             for q in range(n_states) for i, a in enumerate(in_syms)}
    priorities = tuple(rng.randint(0, top_priority) for _ in range(n_out))
    return build_automaton(initial=0, transitions=trans, input_symbols=in_syms,
                           output_symbols=tuple(str(i) for i in range(n_out)),
                           acceptance=ParityAcceptance(priorities))
