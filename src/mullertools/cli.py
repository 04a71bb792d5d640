"""Command line front end: one subcommand per operation, JSON on stdout."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .core import (MalformedInput, MullerToolsError, PreconditionViolation,
                   PropertyViolation, ScaleGuard, UnsupportedOperation,
                   automaton_from_json, automaton_to_json, condition_from_json,
                   condition_to_json)
from .games import (arena_from_json, arena_to_json, at_least_two_colours,
                    exactly_two_colours, min_chromatic_memory_exhaustive,
                    separation_condition, separation_game, solve_muller_game,
                    strategy_from_json, strategy_to_json, verify_strategy)
from .graphs import (chromatic_number, colouring_from_json, colouring_to_json,
                     colouring_to_rabin, edge_alternation_automaton,
                     graph_edge_condition, parse_dimacs, rabin_to_colouring)
# rabincheck reads typeness off synthesize_rabin_pairs; check_rabin_typeable
# stays importable here because perfbench/spans.py wraps it under this name
from .rabin import (NotRabinTypeable, check_rabin_typeable, min_rabin_size,
                    muller_equivalent, rabin_equivalent, synthesize_rabin_pairs)
from .reduction import minimize_genbuchi, minimize_parity
from .zielonka import (ascii_tree, memory_requirements, parity_automaton,
                       tree_to_json, zielonka_tree)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_MALFORMED = 2
EXIT_SCALE = 3
EXIT_INTERNAL = 4  # a defect in mullertools, not in the input


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"cannot decode {path}: {exc}") from None


def _read_json(path: str) -> object:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise MalformedInput(f"{path} nests its JSON too deeply") from None


def _read_game(path: str):
    """An arena and the winning condition that its game file must carry."""
    arena, cond = arena_from_json(_read_json(path))
    if cond is None:
        raise MalformedInput("game file carries no winning condition")
    return arena, cond


def _emit(args, artifact: object, pretty: str) -> None:
    """JSON artifact on stdout and summary on stderr, or the summary on
    stdout when the pretty format was asked for."""
    if args.format == "pretty":
        print(pretty)
    else:
        print(json.dumps(artifact, indent=2))
        if pretty:
            print(pretty, file=sys.stderr)


def _summarise_automaton(aut) -> str:
    return (f"{aut.n_states} state(s), {len(aut.input_alphabet)} input symbol(s), "
            f"acceptance {aut.acceptance.kind}")


def _cmd_zielonka(args) -> int:
    cond = condition_from_json(_read_json(args.condition))
    tree = zielonka_tree(cond)
    _emit(args, tree_to_json(tree), ascii_tree(tree))
    return EXIT_OK


def _cmd_mem(args) -> int:
    cond = condition_from_json(_read_json(args.condition))
    artifact = asdict(memory_requirements(cond))
    pretty = "\n".join(f"{key}: {value}" for key, value in artifact.items())
    _emit(args, artifact, pretty)
    return EXIT_OK


def _cmd_memchrom(args) -> int:
    cond = condition_from_json(_read_json(args.condition))
    limit = args.max_size if args.max_size is not None else 6
    size, witness = min_rabin_size(cond, limit)
    artifact = {
        "chromatic_memory": size,
        "max_size": limit,
        "witness": None if witness is None else automaton_to_json(witness),
    }
    if size is None:
        pretty = f"no structure with at most {limit} state(s) found"
    else:
        pretty = f"chromatic memory {size}"
    _emit(args, artifact, pretty)
    return EXIT_OK


def _cmd_zt2parity(args) -> int:
    cond = condition_from_json(_read_json(args.condition))
    aut = parity_automaton(cond)
    _emit(args, automaton_to_json(aut), _summarise_automaton(aut))
    return EXIT_OK


def _cmd_minimise(args) -> int:
    aut = automaton_from_json(_read_json(args.automaton))
    small = (minimize_parity if args.command == "minparity" else minimize_genbuchi)(aut)
    _emit(args, automaton_to_json(small), _summarise_automaton(small))
    return EXIT_OK


def _cmd_rabincheck(args) -> int:
    aut = automaton_from_json(_read_json(args.automaton))
    try:
        recoloured = synthesize_rabin_pairs(aut)
    except NotRabinTypeable as exc:
        print(f"not typeable: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    _emit(args, automaton_to_json(recoloured), _summarise_automaton(recoloured))
    return EXIT_OK


def _cmd_equiv(args) -> int:
    first = automaton_from_json(_read_json(args.first))
    second = automaton_from_json(_read_json(args.second))
    if first.acceptance.kind == "rabin" and second.acceptance.kind == "rabin":
        same = rabin_equivalent(first, second)
        method = "rabin"
    else:
        same = muller_equivalent(first, second)
        method = "muller"
    _emit(args, {"equivalent": same, "method": method},
          "equivalent" if same else "not equivalent")
    return EXIT_OK if same else EXIT_PROPERTY


def _cmd_chromatic(args) -> int:
    graph = parse_dimacs(_read_text(args.graph))
    number, assignment = chromatic_number(graph)
    artifact = {"chromatic_number": number}
    artifact.update(colouring_to_json(assignment))
    _emit(args, artifact, f"chromatic number {number}")
    return EXIT_OK


def _cmd_graph2rabin(args) -> int:
    graph = parse_dimacs(_read_text(args.graph))
    aut = edge_alternation_automaton(graph)
    _emit(args, automaton_to_json(aut), _summarise_automaton(aut))
    return EXIT_OK


def _cmd_colour2rabin(args) -> int:
    graph = parse_dimacs(_read_text(args.graph))
    colouring = colouring_from_json(_read_json(args.colouring), graph)
    aut = colouring_to_rabin(graph, colouring)
    _emit(args, automaton_to_json(aut), _summarise_automaton(aut))
    return EXIT_OK


def _cmd_rabin2colouring(args) -> int:
    aut = automaton_from_json(_read_json(args.automaton))
    graph = parse_dimacs(_read_text(args.graph))
    colouring = rabin_to_colouring(aut, graph)
    classes = len(set(colouring.values()))
    _emit(args, colouring_to_json(colouring), f"{classes} colour class(es)")
    return EXIT_OK


def _cmd_solve(args) -> int:
    arena, cond = _read_game(args.game)
    winner, memory, table = solve_muller_game(arena, cond)
    if winner == "eve":
        artifact = {"winner": "eve",
                    "strategy": strategy_to_json(memory, table, arena)}
    else:
        artifact = {"winner": "adam", "strategy": None}
    _emit(args, artifact, f"winner: {winner}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    arena, cond = _read_game(args.game)
    memory, table = strategy_from_json(_read_json(args.strategy), arena)
    good = verify_strategy(arena, cond, memory, table)
    _emit(args, {"verified": good}, "verified" if good else "losing strategy")
    return EXIT_OK if good else EXIT_PROPERTY


def _cmd_memgame(args) -> int:
    arena, cond = _read_game(args.game)
    limit = args.max_size if args.max_size is not None else 4
    size = min_chromatic_memory_exhaustive(arena, cond, limit)
    artifact = {"min_chromatic_memory": size, "max_size": limit}
    if size is None:
        pretty = f"no colour-driven memory with at most {limit} state(s) wins"
    else:
        pretty = f"minimal colour-driven memory: {size}"
    _emit(args, artifact, pretty)
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.what == "example22":
        arena = separation_game()
        artifact = arena_to_json(arena, separation_condition())
        _emit(args, artifact, "separation game, 10 vertices, 15 edges")
        return EXIT_OK
    if args.size is None:
        raise MalformedInput(f"'{args.what}' needs a size argument")
    if args.size < 2:
        raise MalformedInput("size must be at least 2")
    if args.size > 16:
        raise ScaleGuard(f"size {args.size}, limit 16")
    symbols = tuple(str(i) for i in range(1, args.size + 1))
    if args.what == "clique-cond":
        cond = exactly_two_colours(symbols)
        pretty = f"two-colour sets over {args.size} symbols"
    else:
        cond = at_least_two_colours(symbols)
        pretty = f"sets of two or more colours over {args.size} symbols"
    _emit(args, condition_to_json(cond), pretty)
    return EXIT_OK


def _cmd_reduce_demo(args) -> int:
    graph = parse_dimacs(_read_text(args.graph))
    number, assignment = chromatic_number(graph)
    aut = colouring_to_rabin(graph, assignment)
    recovered = rabin_to_colouring(aut, graph)
    classes = len(set(recovered.values()))
    limit = args.max_size if args.max_size is not None else number
    cond = graph_edge_condition(graph)
    size, _ = min_rabin_size(cond, limit)
    artifact = {
        "chromatic_number": number,
        "min_rabin_size": size,
        "colouring_roundtrip_classes": classes,
        "match": size == number and classes <= number,
    }
    pretty = (f"chromatic number {number}, minimal structure size {size}, "
              f"{'match' if artifact['match'] else 'MISMATCH'}")
    _emit(args, artifact, pretty)
    return EXIT_OK if artifact["match"] else EXIT_PROPERTY


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-size", type=int, default=None,
                        help="state budget for searches")
    common.add_argument("--format", choices=("json", "pretty"), default="json",
                        help="json: artifact on stdout, summary on stderr; "
                             "pretty: summary on stdout")
    common.add_argument("--threads", type=int, default=1,
                        help="searches run in one process; kept, at 1 or"
                             " more, for scripts that pass it")

    parser = argparse.ArgumentParser(
        prog="mullertools",
        description="Tools for Muller conditions, parity automata, Rabin "
                    "structures, graph colouring and games.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, *positionals):
        p = sub.add_parser(name, parents=[common], help=help_text)
        for arg_name, arg_help in positionals:
            kwargs = {"help": arg_help}
            if arg_name == "size":
                kwargs.update(nargs="?", type=int, default=None)
            p.add_argument(arg_name, **kwargs)
        p.set_defaults(run=fn)
        return p

    add("zielonka", _cmd_zielonka, "condition tree, JSON plus ASCII rendering",
        ("condition", "condition JSON file"))
    add("mem", _cmd_mem, "memory requirements of a condition",
        ("condition", "condition JSON file"))
    add("memchrom", _cmd_memchrom, "chromatic memory via the structure search",
        ("condition", "condition JSON file"))
    add("zt2parity", _cmd_zt2parity, "parity automaton of a condition",
        ("condition", "condition JSON file"))
    add("minparity", _cmd_minimise, "minimise a parity automaton",
        ("automaton", "automaton JSON file"))
    add("minbuchi", _cmd_minimise,
        "minimise an automaton with a generalised Buchi acceptance",
        ("automaton", "automaton JSON file"))
    add("rabincheck", _cmd_rabincheck,
        "check Rabin typeness and synthesise pairs",
        ("automaton", "automaton JSON file"))
    add("equiv", _cmd_equiv, "language equivalence of two automata",
        ("first", "automaton JSON file"), ("second", "automaton JSON file"))
    add("chromatic", _cmd_chromatic, "chromatic number and witness colouring",
        ("graph", "DIMACS graph file"))
    add("graph2rabin", _cmd_graph2rabin,
        "edge-alternation automaton of a graph",
        ("graph", "DIMACS graph file"))
    add("colour2rabin", _cmd_colour2rabin,
        "Rabin automaton from a proper colouring",
        ("graph", "DIMACS graph file"), ("colouring", "colouring JSON file"))
    add("rabin2colouring", _cmd_rabin2colouring,
        "proper colouring from a Rabin automaton",
        ("automaton", "automaton JSON file"), ("graph", "DIMACS graph file"))
    add("solve", _cmd_solve, "solve a game with an embedded condition",
        ("game", "game JSON file"))
    add("verify", _cmd_verify, "check a strategy against a game",
        ("game", "game JSON file"), ("strategy", "strategy JSON file"))
    add("memgame", _cmd_memgame,
        "least colour-driven memory winning a game",
        ("game", "game JSON file"))
    add("gen", _cmd_gen, "write a named example input",
        ("what", "example22, clique-cond or min2-cond"),
        ("size", "alphabet size for the condition families"))
    add("reduce-demo", _cmd_reduce_demo,
        "chromatic number versus minimal structure size on one graph",
        ("graph", "DIMACS graph file"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen" and args.what not in ("example22", "clique-cond",
                                                   "min2-cond"):
        print(f"unknown example '{args.what}'", file=sys.stderr)
        return EXIT_MALFORMED
    if args.threads < 1:
        print(f"error: thread count {args.threads} is below 1", file=sys.stderr)
        return EXIT_MALFORMED
    try:
        return args.run(args)
    except ScaleGuard as exc:
        print(f"scale guard: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except (MalformedInput, PreconditionViolation, UnsupportedOperation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except PropertyViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except MullerToolsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except Exception:
        # the interpreter's own report, without importing traceback on
        # every command
        sys.excepthook(*sys.exc_info())
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
