"""Transition-based automata over infinite words, Muller conditions, Rabin
structures, graph colouring and games with memory."""

from .core import (Alphabet, Automaton, GenBuchiAcceptance, GenCoBuchiAcceptance,
                   MalformedInput, MullerAcceptance, MullerCondition,
                   MullerToolsError, ParityAcceptance, PeriodicWord,
                   PreconditionViolation, PropertyViolation, RabinAcceptance,
                   ScaleGuard, StreettAcceptance, UnsupportedOperation,
                   accepts_up_word, automaton_from_json, automaton_to_json,
                   build_automaton, complement_condition, condition_from_json,
                   condition_to_json, dualise, max_inclusion,
                   realizable_cycle_sets)
from .games import (Arena, MemoryStructure, StrategyTable, arena_from_json,
                    arena_to_json, at_least_two_colours, exactly_two_colours,
                    min_chromatic_memory_exhaustive, muller_regions,
                    product_with_parity,
                    separation_chromatic_memory, separation_condition,
                    separation_game, separation_general_memory,
                    solve_muller_game, solve_parity_game, strategy_from_json,
                    strategy_to_json, two_cycle_game, two_state_memory_min2,
                    verify_strategy)
from .graphs import (SimpleGraph, chromatic_number, colouring_from_json,
                     colouring_to_json, colouring_to_rabin,
                     edge_alternation_automaton, graph_edge_condition,
                     graph_to_dimacs, parse_dimacs, rabin_to_colouring,
                     vertex_alphabet)
from .rabin import (NotRabinTypeable, RabinTypenessReport, chromatic_memory,
                    check_rabin_typeable, min_rabin_size, muller_equivalent,
                    rabin_equivalent, synthesize_rabin_pairs)
from .reduction import minimize_genbuchi, minimize_parity, zielonka_tree_from_parity
from .zielonka import (MemoryRequirements, ZielonkaTree, ascii_tree,
                       general_memory, is_genbuchi_recognizable,
                       is_half_positional, memory_requirements,
                       parity_automaton, parity_automaton_from_tree,
                       tree_from_json, tree_to_json, trees_isomorphic,
                       zielonka_tree)

__version__ = "0.1.0"
