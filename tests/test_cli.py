"""End-to-end command line checks, driven in process through main()."""
import json
import random
import time

import pytest

from mullertools import cli
from mullertools.cli import main
from mullertools.core import (Alphabet, GenBuchiAcceptance, MullerAcceptance,
                              MullerCondition, ParityAcceptance,
                              RabinAcceptance, automaton_to_json,
                              build_automaton, condition_to_json)
from mullertools.games import (Arena, arena_to_json, separation_condition,
                               separation_game, strategy_to_json,
                               separation_chromatic_memory, two_cycle_game,
                               at_least_two_colours)
from mullertools.graphs import SimpleGraph, graph_to_dimacs
from mullertools.rabin import synthesize_rabin_pairs
from mullertools.zielonka import parity_automaton

from generators import a_then_b

P3 = SimpleGraph(3, ((1, 2), (2, 3)))
K3 = SimpleGraph(3, ((1, 2), (2, 3), (1, 3)))


def both_letters():
    return MullerCondition.make(("a", "b"), [("a", "b")])


@pytest.fixture
def cond_file(tmp_path):
    path = tmp_path / "cond.json"
    path.write_text(json.dumps(condition_to_json(both_letters())))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zielonka_json_and_pretty(capsys, cond_file):
    code, out, err = run(capsys, "zielonka", cond_file)
    assert code == 0
    data = json.loads(out)
    assert data["label"] == ["a", "b"] or "label" in data
    assert "{a,b}" in err
    code2, out2, _ = run(capsys, "zielonka", cond_file, "--format", "pretty")
    assert code2 == 0
    assert out2.splitlines()[0] == "{a,b} [+]"


def test_output_is_deterministic(capsys, cond_file):
    first = run(capsys, "zielonka", cond_file)
    second = run(capsys, "zielonka", cond_file)
    assert first == second


def test_mem_fields(capsys, cond_file):
    code, out, _ = run(capsys, "mem", cond_file)
    assert code == 0
    data = json.loads(out)
    assert data["general_memory"] == 2
    assert data["genbuchi_recognizable"] is True
    assert data["priorities_used"] == 2


def test_memchrom(capsys, cond_file):
    code, out, _ = run(capsys, "memchrom", cond_file, "--max-size", "3")
    assert code == 0
    data = json.loads(out)
    assert data["chromatic_memory"] == 2
    assert data["witness"]["states"] == 2


def test_state_budget_below_one_is_exit_two(capsys, cond_file, tmp_path):
    code, out, err = run(capsys, "memchrom", cond_file, "--max-size", "0")
    assert code == 2
    assert out == "" and "below 1" in err
    game = tmp_path / "game.json"
    game.write_text(json.dumps(arena_to_json(separation_game(), separation_condition())))
    code, out, err = run(capsys, "memgame", str(game), "--max-size", "0")
    assert code == 2
    assert out == "" and "below 1" in err


def test_zt2parity_then_minparity(capsys, cond_file, tmp_path):
    code, out, _ = run(capsys, "zt2parity", cond_file)
    assert code == 0
    aut_path = tmp_path / "aut.json"
    aut_path.write_text(out)
    code2, out2, _ = run(capsys, "minparity", str(aut_path))
    assert code2 == 0
    assert json.loads(out2)["states"] == 2


def test_minbuchi_rejects_parity_input(capsys, cond_file, tmp_path):
    _, out, _ = run(capsys, "zt2parity", cond_file)
    aut_path = tmp_path / "aut.json"
    aut_path.write_text(out)
    code, _, err = run(capsys, "minbuchi", str(aut_path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command,acceptance", [
    ("minbuchi", GenBuchiAcceptance((0b01,))),
    ("minparity", ParityAcceptance((2, 1))),
])
def test_minimisers_refuse_order_dependent_language(capsys, tmp_path, command, acceptance):
    path = tmp_path / "aut.json"
    path.write_text(json.dumps(automaton_to_json(a_then_b(acceptance))))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_rabincheck_typeable(capsys, cond_file, tmp_path):
    _, out, _ = run(capsys, "zt2parity", cond_file)
    aut_path = tmp_path / "aut.json"
    aut_path.write_text(out)
    code, out2, _ = run(capsys, "rabincheck", str(aut_path))
    assert code == 0
    assert json.loads(out2)["acceptance"]["kind"] == "rabin"


def test_rabincheck_untypeable(capsys, tmp_path):
    # single state reading three letters with the two-of-three condition
    cond = MullerCondition.make(("1", "2", "3"), [("1", "2"), ("1", "3"), ("2", "3")])
    from mullertools.core import MullerAcceptance, build_automaton
    trans = {(0, s): (0, s) for s in ("1", "2", "3")}
    aut = build_automaton(initial=0, transitions=trans,
                          input_symbols=("1", "2", "3"),
                          output_symbols=("1", "2", "3"),
                          acceptance=MullerAcceptance(cond))
    path = tmp_path / "aut.json"
    path.write_text(json.dumps(automaton_to_json(aut)))
    code, _, err = run(capsys, "rabincheck", str(path))
    assert code == 1
    assert "not typeable" in err


def test_equiv_same_and_different(capsys, tmp_path):
    a = parity_automaton(both_letters())
    b = synthesize_rabin_pairs(a)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(automaton_to_json(a)))
    pb.write_text(json.dumps(automaton_to_json(b)))
    code, out, _ = run(capsys, "equiv", str(pa), str(pb))
    assert code == 0
    assert json.loads(out) == {"equivalent": True, "method": "muller"}
    code2, out2, _ = run(capsys, "equiv", str(pb), str(pb))
    assert code2 == 0
    assert json.loads(out2)["method"] == "rabin"
    # compare against the single-letter condition: different languages
    other = parity_automaton(MullerCondition.make(("a", "b"), [("a",)]))
    po = tmp_path / "o.json"
    po.write_text(json.dumps(automaton_to_json(other)))
    code3, out3, _ = run(capsys, "equiv", str(pa), str(po))
    assert code3 == 1
    assert json.loads(out3)["equivalent"] is False


def test_chromatic_and_reduce_demo(capsys, tmp_path):
    graph_path = tmp_path / "k3.col"
    graph_path.write_text(graph_to_dimacs(K3))
    code, out, _ = run(capsys, "chromatic", str(graph_path))
    assert code == 0
    data = json.loads(out)
    assert data["chromatic_number"] == 3
    assert sorted(data["assignment"]) == [1, 2, 3]
    code2, out2, _ = run(capsys, "reduce-demo", str(graph_path))
    assert code2 == 0
    demo = json.loads(out2)
    assert demo["match"] is True
    assert demo["min_rabin_size"] == 3


def test_colouring_search_is_scale_guarded(capsys, tmp_path):
    # G(n, 1/2): G(50) needs about 5,000 colouring nodes, while G(64) found
    # no answer within 40 s before the search counted its nodes
    def gnp(n):
        rng = random.Random(5)
        return SimpleGraph(n, tuple((u, v) for u in range(1, n + 1)
                                    for v in range(u + 1, n + 1) if rng.random() < 0.5))

    for n, code_wanted in ((50, 0), (64, 3)):
        graph_path = tmp_path / f"g{n}.col"
        graph_path.write_text(graph_to_dimacs(gnp(n)))
        code, out, err = run(capsys, "chromatic", str(graph_path))
        assert code == code_wanted
        if code == 0:
            assert json.loads(out)["chromatic_number"] == 10
        else:
            assert out == ""
            assert err == ("scale guard: colouring search explored 20001 nodes,"
                           " limit 20000\n")


def test_colouring_pipeline(capsys, tmp_path):
    graph_path = tmp_path / "p3.col"
    graph_path.write_text(graph_to_dimacs(P3))
    _, out, _ = run(capsys, "chromatic", str(graph_path))
    colouring_path = tmp_path / "col.json"
    colouring_path.write_text(out)
    code, out2, _ = run(capsys, "colour2rabin", str(graph_path),
                        str(colouring_path))
    assert code == 0
    aut_path = tmp_path / "aut.json"
    aut_path.write_text(out2)
    code3, out3, _ = run(capsys, "rabin2colouring", str(aut_path),
                         str(graph_path))
    assert code3 == 0
    back = json.loads(out3)
    assert back["size"] <= 2
    code4, out4, _ = run(capsys, "graph2rabin", str(graph_path))
    assert code4 == 0
    assert json.loads(out4)["states"] == 3
    # the discrete-colouring automaton names its states by vertex, 1..n
    assert json.loads(out4)["output"] == [f"{q}:{x}" for q in "123" for x in "123"]


def test_solve_verify_memgame(capsys, tmp_path):
    arena = two_cycle_game(("a",), ("b",), ("a", "b"))
    cond = at_least_two_colours(arena.colours)
    game_path = tmp_path / "game.json"
    game_path.write_text(json.dumps(arena_to_json(arena, cond)))
    code, out, _ = run(capsys, "solve", str(game_path))
    assert code == 0
    solved = json.loads(out)
    assert solved["winner"] == "eve"
    strategy_path = tmp_path / "strategy.json"
    strategy_path.write_text(json.dumps(solved["strategy"]))
    code2, out2, _ = run(capsys, "verify", str(game_path), str(strategy_path))
    assert code2 == 0
    assert json.loads(out2) == {"verified": True}
    code3, out3, _ = run(capsys, "memgame", str(game_path))
    assert code3 == 0
    assert json.loads(out3)["min_chromatic_memory"] == 2


def test_verify_losing_strategy_exits_one(capsys, tmp_path):
    arena = separation_game()
    cond = separation_condition()
    game_path = tmp_path / "game.json"
    game_path.write_text(json.dumps(arena_to_json(arena, cond)))
    memory, table = separation_chromatic_memory()
    data = strategy_to_json(memory, table, arena)
    # corrupt the choices at the gadget vertex for colour a: keep feeding
    # colour a forever regardless of memory
    for entry in data["table"]:
        if entry["vertex"] == 1:
            entry["edge"] = 3  # 1 -> 4 colour a, always
    strategy_path = tmp_path / "strategy.json"
    strategy_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(game_path), str(strategy_path))
    assert code == 1
    assert json.loads(out) == {"verified": False}


@pytest.mark.parametrize("field_name", ["states", "initial"])
def test_verify_refuses_non_integer_memory_field(capsys, tmp_path, field_name):
    arena = separation_game()
    game_path = tmp_path / "game.json"
    game_path.write_text(json.dumps(arena_to_json(arena, separation_condition())))
    data = strategy_to_json(*separation_chromatic_memory(), arena)
    data["memory"][field_name] = str(data["memory"][field_name])
    strategy_path = tmp_path / "strategy.json"
    strategy_path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(game_path), str(strategy_path))
    assert (code, out) == (2, "")
    assert "must be integers" in err


def test_parity_priorities_must_be_integers(capsys, cond_file, tmp_path):
    _, out, _ = run(capsys, "zt2parity", cond_file)
    data = json.loads(out)
    priorities = data["acceptance"]["priorities"]
    symbol = next(iter(priorities))
    path = tmp_path / "aut.json"
    for bad in ("zero", 2.7, True):
        priorities[symbol] = bad
        path.write_text(json.dumps(data))
        code, out2, err = run(capsys, "rabincheck", str(path))
        assert (code, out2) == (2, ""), bad
        assert "must be a non-negative integer" in err


def _replaced(data, path, change):
    """Copy of the JSON data with the value v at path replaced by change(v)."""
    data = json.loads(json.dumps(data))
    *head, last = path
    holder = data
    for key in head:
        holder = holder[key]
    holder[last] = change(holder[last])
    return data


def _booleanised(data, path):
    """Copy of the JSON data with the 0 or 1 at path replaced by the boolean
    that Python counts as equal to it."""
    def change(value):
        assert value in (0, 1)
        return bool(value)
    return _replaced(data, path, change)


def _joined(path):
    return "/".join(map(str, path))


def _refused(capsys, tmp_path, command, *files):
    paths = []
    for i, data in enumerate(files):
        path = tmp_path / f"input{i}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    code, out, err = run(capsys, command, *paths)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    return err


@pytest.mark.parametrize("path", [("states",), ("initial",), ("delta", 0, 0),
                                  ("delta", 1, 2)], ids=_joined)
def test_automaton_reader_refuses_booleans(capsys, tmp_path, path):
    aut = build_automaton(initial=0, transitions={(0, "a"): (0, "0"), (0, "b"): (0, "1")},
                          input_symbols="ab", output_symbols="01",
                          acceptance=ParityAcceptance((0, 1)))
    _refused(capsys, tmp_path, "rabincheck",
             _booleanised(automaton_to_json(aut), path))


@pytest.mark.parametrize("path", [("initial",), ("vertices", 0, "id"),
                                  ("edges", 0, "from"), ("edges", 1, "to")],
                         ids=_joined)
def test_arena_reader_refuses_booleans(capsys, tmp_path, path):
    arena = two_cycle_game(("a",), ("b",), ("a", "b"))
    game = arena_to_json(arena, at_least_two_colours(arena.colours))
    _refused(capsys, tmp_path, "solve", _booleanised(game, path))


@pytest.mark.parametrize("path", [
    ("memory", "states"), ("memory", "initial"), ("memory", "update", 0, 0),
    ("memory", "update", 1, 1), ("memory", "update", 1, 2), ("table", 0, "vertex"),
    ("table", 0, "mstate"), ("table", 0, "edge")], ids=_joined)
def test_strategy_reader_refuses_booleans(capsys, tmp_path, path):
    # one vertex with an a-loop and a b-loop; always taking the a-loop wins
    arena = two_cycle_game(("a",), ("b",), ("a", "b"))
    game = arena_to_json(arena, MullerCondition.make(("a", "b"), [("a",)]))
    strategy = {"memory": {"states": 1, "initial": 0, "kind": "general",
                           "update": [[0, 0, 0], [0, 1, 0]]},
                "table": [{"vertex": 0, "mstate": 0, "edge": 0}]}
    _refused(capsys, tmp_path, "verify", game, _booleanised(strategy, path))


def test_colouring_reader_refuses_booleans(capsys, tmp_path):
    graph_path = tmp_path / "p3.col"
    graph_path.write_text(graph_to_dimacs(P3))
    colouring_path = tmp_path / "col.json"
    colouring_path.write_text(json.dumps({"size": 2, "assignment": [True, 2, True]}))
    code, out, err = run(capsys, "colour2rabin", str(graph_path), str(colouring_path))
    assert (code, out) == (2, "")
    assert "must be a positive integer" in err


@pytest.mark.parametrize("argv", [("zielonka",), ("memchrom", "--max-size", "2")],
                         ids=lambda argv: argv[0])
def test_condition_reader_refuses_list_symbol(capsys, tmp_path, argv):
    path = tmp_path / "cond.json"
    path.write_text(json.dumps({"alphabet": ["a", "b"], "accepting": [[["a"]]]}))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert "unknown symbol ['a']" in err and "Traceback" not in err


@pytest.mark.parametrize("path", [("acceptance", "pairs", 0, 0, 0), ("delta", 0, 1)],
                         ids=_joined)
def test_automaton_reader_refuses_list_symbol(capsys, tmp_path, path):
    aut = build_automaton(initial=0, transitions={(0, "a"): (0, "0"), (0, "b"): (0, "1")},
                          input_symbols="ab", output_symbols="01",
                          acceptance=RabinAcceptance(((0b01, 0b10),)))
    err = _refused(capsys, tmp_path, "rabincheck",
                   _replaced(automaton_to_json(aut), path, lambda symbol: [symbol]))
    assert "unknown symbol [" in err


@pytest.mark.parametrize("acceptance", [
    {"kind": "rabin", "pairs": [[1, ["1"]]]},
    {"kind": "genbuchi", "sets": [1]},
    {"kind": "genbuchi", "sets": ["01"]},
], ids=["pair-number", "set-number", "set-string"])
def test_automaton_reader_refuses_non_list_acceptance_sets(capsys, tmp_path, acceptance):
    aut = build_automaton(initial=0, transitions={(0, "a"): (0, "0"), (0, "b"): (0, "1")},
                          input_symbols="ab", output_symbols="01",
                          acceptance=RabinAcceptance(((0b01, 0b10),)))
    data = automaton_to_json(aut)
    data["acceptance"] = acceptance
    err = _refused(capsys, tmp_path, "rabincheck", data)
    assert "list of lists" in err


def lost_game(symbols):
    """One opponent vertex looping on a, as JSON with a condition over
    symbols that accepts only the set of all of them: with two symbols or
    more, the colour player loses."""
    arena = Arena(Alphabet(("a",)), (False,), 0, ((0, 0, 0),))
    return arena_to_json(arena, MullerCondition.make(symbols, [symbols]))


def test_solve_wide_condition_is_refused_before_the_winner(capsys, tmp_path):
    # the colour player loses, yet the tree's guard still speaks first
    path = tmp_path / "game.json"
    path.write_text(json.dumps(lost_game([chr(ord("a") + i) for i in range(17)])))
    code, out, err = run(capsys, "solve", str(path))
    assert (code, out) == (3, "")
    assert err == ("scale guard: tree construction enumerates subsets;"
                   " alphabet of 17 symbols, limit 16\n")


@pytest.mark.parametrize("command", ["solve", "memgame"])
def test_missing_arena_colour_is_refused_on_a_lost_game(capsys, tmp_path, command):
    game = lost_game(["a", "b"])
    game["edges"].append({"from": 0, "to": 0, "colour": "z"})
    err = _refused(capsys, tmp_path, command, game)
    assert "'z'" in err


def test_solve_game_without_condition(capsys, tmp_path):
    arena = two_cycle_game(("a",), ("b",), ("a", "b"))
    game_path = tmp_path / "game.json"
    game_path.write_text(json.dumps(arena_to_json(arena)))
    code, _, err = run(capsys, "solve", str(game_path))
    assert code == 2
    assert "condition" in err


def test_gen_examples(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "example22")
    assert code == 0
    game = json.loads(out)
    assert len(game["vertices"]) == 10
    assert len(game["edges"]) == 15
    assert game["condition"] is not None
    code2, out2, _ = run(capsys, "gen", "clique-cond", "3")
    assert code2 == 0
    cond = json.loads(out2)
    assert cond["alphabet"] == ["1", "2", "3"]
    assert sorted(map(sorted, cond["accepting"])) == [["1", "2"], ["1", "3"], ["2", "3"]]
    code3, out3, _ = run(capsys, "gen", "min2-cond", "3")
    assert code3 == 0
    assert len(json.loads(out3)["accepting"]) == 4


def test_gen_validation(capsys):
    code, _, err = run(capsys, "gen", "nonsense")
    assert code == 2
    assert "unknown example" in err
    code2, _, err2 = run(capsys, "gen", "clique-cond")
    assert code2 == 2
    code3, _, _ = run(capsys, "gen", "clique-cond", "1")
    assert code3 == 2
    code4, _, err4 = run(capsys, "gen", "clique-cond", "40")
    assert code4 == 3
    assert "size 40, limit 16" in err4


def test_missing_file_is_exit_two(capsys):
    code, _, err = run(capsys, "zielonka", "/no/such/file.json")
    assert code == 2
    assert "cannot read" in err


def test_invalid_json_is_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "zielonka", str(bad))
    assert code == 2
    assert "not valid JSON" in err


def test_scale_guard_is_exit_three(capsys, tmp_path):
    cond = MullerCondition.make(tuple(f"s{i}" for i in range(17)),
                                [tuple(f"s{i}" for i in range(17))])
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(condition_to_json(cond)))
    code, _, err = run(capsys, "zielonka", str(path))
    assert code == 3
    assert "scale guard" in err


def test_internal_error_is_exit_four(capsys, cond_file, monkeypatch):
    def broken(args):
        raise RuntimeError("defect under test")

    monkeypatch.setattr(cli, "_cmd_mem", broken)
    code, out, err = run(capsys, "mem", cond_file)
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert "Traceback" in err and "RuntimeError: defect under test" in err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_threads_flag(capsys, cond_file):
    code, out, _ = run(capsys, "memchrom", cond_file, "--max-size", "3",
                       "--threads", "2")
    assert code == 0
    assert json.loads(out)["chromatic_memory"] == 2


def test_rabincheck_names_the_witness_sets(capsys, tmp_path):
    cond = MullerCondition.make(("1", "2", "3"), [("1", "2"), ("1", "3"), ("2", "3")])
    aut = build_automaton(initial=0, transitions={(0, s): (0, s) for s in "123"},
                          input_symbols="123", output_symbols="123",
                          acceptance=MullerAcceptance(cond))
    path = tmp_path / "aut.json"
    path.write_text(json.dumps(automaton_to_json(aut)))
    code, _, err = run(capsys, "rabincheck", str(path))
    assert code == 1
    assert err.strip() == ("not typeable: state 0 carries rejecting cycles over"
                           " ['1'] and ['2'] whose union is accepting")


def test_seed_option_is_gone(capsys, cond_file):
    with pytest.raises(SystemExit) as exc:
        main(["mem", cond_file, "--seed", "3"])
    assert exc.value.code == 2


def test_verify_counts_update_entries_before_allocating(capsys, tmp_path):
    # a strategy file of a few bytes claims 10**12 memory states: the reader
    # must refuse it before it allocates a row per state
    arena = two_cycle_game(("a",), ("b",), ("a", "b"))
    game = arena_to_json(arena, at_least_two_colours(arena.colours))
    strategy = {"memory": {"states": 10 ** 12, "initial": 0, "kind": "chromatic",
                           "update": []},
                "table": []}
    start = time.perf_counter()
    _refused(capsys, tmp_path, "verify", game, strategy)
    assert time.perf_counter() - start < 1
