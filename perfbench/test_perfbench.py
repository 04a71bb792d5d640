"""Tests of the benchmark itself: inputs, oracles, checks, scale limits and
the tracer.  Run from the repository root:

    python3 perfbench/test_perfbench.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build"  # temporary files stay inside the checkout
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402


def run_cli(argv):
    from mullertools.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except RecursionError as exc:  # defect (ii) of the ROADMAP
            rc = exc
    return rc, out.getvalue(), err.getvalue()


def option(argv, name, default=None):
    return int(argv[argv.index(name) + 1]) if name in argv else default


class Inputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in inputs.WORKLOADS:
            first, again = inputs.build(workload, 7), inputs.build(workload, 7)
            self.assertEqual(json.dumps(first), json.dumps(again))
            self.assertNotEqual(first[0], inputs.build(workload, 8)[0])

    def test_every_command_sets_its_search_budget(self):
        for workload in inputs.WORKLOADS:
            for case in inputs.build(workload, 1)[1]:
                if case["argv"][0] in ("memchrom", "reduce-demo", "memgame"):
                    self.assertIn("--max-size", case["argv"], case["id"])
                self.assertEqual(case["argv"][-2:], ["--threads", "1"])

    def test_named_inputs_match_the_gen_subcommand(self):
        files, _ = inputs.build("chromatic-memory", 1)
        games, _ = inputs.build("muller-games", 1)
        for ours, argv in ((files["clique4.json"], ["gen", "clique-cond", "4"]),
                           (files["min2-4.json"], ["gen", "min2-cond", "4"]),
                           (games["example22.json"], ["gen", "example22"])):
            rc, out, _ = run_cli(argv)
            self.assertEqual(rc, 0)
            theirs, mine = json.loads(out), json.loads(ours)
            if "accepting" in theirs:
                self.assertEqual(sorted(map(sorted, theirs["accepting"])),
                                 sorted(map(sorted, mine["accepting"])))
            else:
                self.assertEqual(theirs, mine)


class Oracles(unittest.TestCase):
    def test_tree_parity_automaton_recognises_its_condition(self):
        rng = random.Random(5)
        for n in (2, 3, 4, 5):
            family = inputs.random_family(rng, n)
            aut = oracle.tree_parity_automaton(n, family)
            self.assertEqual(aut["n"], oracle.leaf_count(oracle.zielonka(n, family)))
            big = inputs.relabel_automaton(inputs.inflate(aut, rng, 3), rng)
            for _ in range(200):
                prefix, period = inputs.random_lasso(rng, n)
                want = sum(1 << a for a in set(period)) in family
                self.assertEqual(oracle.lasso_accepted(aut, prefix, period), want)
                letters = [big["inputs"].index(aut["inputs"][a]) for a in range(n)]
                self.assertEqual(oracle.lasso_accepted(big, [letters[a] for a in prefix],
                                                       [letters[a] for a in period]), want)

    def test_brute_chromatic(self):
        for name, chi in (("c5", 3), ("c6", 2), ("prism", 3), ("octahedron", 3),
                          ("k33", 2), ("fan5", 3)):
            self.assertEqual(oracle.brute_chromatic(*inputs.GRAPH_SHAPES[name]), chi, name)
        self.assertEqual(oracle.brute_chromatic(*inputs.K4), 4)

    def test_dual_game_swaps_players_and_complements(self):
        files, _ = inputs.build("muller-games", 1)
        game = json.loads(files["game-0.json"])
        dual = json.loads(inputs.dual_game_text(files["game-0.json"]))
        self.assertTrue(all(a["owner"] != b["owner"]
                            for a, b in zip(game["vertices"], dual["vertices"])))
        n = len(game["condition"]["alphabet"])
        self.assertEqual(len(game["condition"]["accepting"])
                         + len(dual["condition"]["accepting"]), (1 << n) - 1)


class Checks(unittest.TestCase):
    """Each rule accepts the program's real output and rejects a tampered one."""

    def setUp(self):
        SCRATCH.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=SCRATCH))
        self.addCleanup(shutil.rmtree, self.dir)

    def outputs(self, workload, prefixes):
        files, cases = inputs.build(workload, 3)
        for name, text in files.items():
            (self.dir / name).write_text(text)
        for case in cases:
            if case["id"].startswith(prefixes):
                rc, out, err = run_cli([str(self.dir / a) if a in files else a
                                        for a in case["argv"]])
                yield case, rc, out, err, files

    def assert_tamper_caught(self, case, rc, out, err, files, bad):
        self.assertIsNone(checks.check(case, rc, out, err, files), case["id"])
        self.assertIsNotNone(checks.check(case, *bad, files), case["id"])

    def test_automata_verdicts(self):
        prefixes = ("rabincheck-big-0", "rabincheck-small-0", "equiv-rabin-0",
                    "minparity-0", "minbuchi-0", "defect-")
        for case, rc, out, err, files in self.outputs("automata-check", prefixes):
            kind = case["check"]
            if kind == "rabincheck" and rc == 1:
                bad = (rc, out, err.replace("state ", "state 99", 1))
            elif kind == "rabincheck":
                data = json.loads(out)
                data["acceptance"]["pairs"] = data["acceptance"]["pairs"][:1]
                bad = (rc, json.dumps(data), err)
            elif kind == "equiv":
                data = json.loads(out)
                bad = (rc, json.dumps(dict(data, equivalent=not data["equivalent"])), err)
            elif kind == "minparity":
                data = json.loads(out)
                data["acceptance"]["priorities"] = {
                    k: v + 1 for k, v in data["acceptance"]["priorities"].items()}
                bad = (rc, json.dumps(data), err)
            elif kind == "minbuchi":
                data = json.loads(out)
                data["acceptance"]["sets"] = []  # accepts every word
                bad = (rc, json.dumps(data), err)
            else:
                # the defects: refusal passes, today's answers do not
                self.assertIsNotNone(checks.check(case, rc, out, err, files))
                self.assertIsNone(checks.check(case, 2, "", "error: refused", files))
                continue
            self.assert_tamper_caught(case, rc, out, err, files, bad)

    def test_graph_and_game_verdicts(self):
        for case, rc, out, err, files in self.outputs("chromatic-memory",
                                                      ("reduce-c5", "memchrom-random-0")):
            data = json.loads(out)
            if case["check"] == "reduce":
                data.update(chromatic_number=2, min_rabin_size=2)
            else:
                data["witness"]["delta"] = [[q, a, 0, o] for q, a, _, o in data["witness"]["delta"]]
            self.assert_tamper_caught(case, rc, out, err, files, (rc, json.dumps(data), err))
        for case, rc, out, err, files in self.outputs("muller-games", ("verify-ring10",)):
            data = json.loads(out)
            self.assert_tamper_caught(case, rc, out, err, files,
                                      (rc, json.dumps({"verified": not data["verified"]}), err))

    def test_exceptions_and_scale_guards_fail(self):
        case = inputs.build("automata-check", 1)[1][0]
        self.assertIn("RecursionError", checks.check(case, RecursionError("deep"), "", "", {}))
        self.assertIn("scale guard", checks.check(case, 3, "", "scale guard: too big", {}))


class ScaleGuards(unittest.TestCase):
    """Every command stays inside today's limits of the package."""

    def test_commands_stay_inside_the_guards(self):
        for workload in inputs.WORKLOADS:
            files, cases = inputs.build(workload, 1)
            for case in cases:
                argv = case["argv"]
                data = [json.loads(files[a]) for a in argv if a.endswith(".json")]
                if argv[0] == "memchrom":
                    self.assertLessEqual(option(argv, "--max-size") * len(data[0]["alphabet"]), 36)
                if argv[0] == "reduce-demo":
                    n = int(files[argv[1]].split()[2])
                    self.assertLessEqual(option(argv, "--max-size") * n, 36)
                if argv[0] in ("verify", "solve", "memgame"):
                    self.assertLessEqual(len(data[0]["condition"]["alphabet"]), 14)
                if argv[0] == "memgame":
                    self.assertLessEqual(len(data[0]["condition"]["alphabet"]), 8)
                    self.assertLessEqual(option(argv, "--max-size") * len(data[0]["vertices"]), 400)
                if argv[0] == "equiv" and case["expect"]["method"] == "muller":
                    left, right = (oracle.parse_automaton(files[a]) for a in argv[1:3])
                    self.assertLessEqual(len(left["outputs"]), 14)
                    self.assertLessEqual(product_states(left, right), 200)
                if argv[0] == "rabincheck" and "words" in case["expect"]:
                    aut = data[0]
                    self.assertLessEqual(aut["states"] * len(aut["input"]), 20)


def product_states(a, b) -> int:
    remap = [b["inputs"].index(s) for s in a["inputs"]]
    seen = {(a["initial"], b["initial"])}
    todo = list(seen)
    while todo:
        p, q = todo.pop()
        for x in range(len(remap)):
            nxt = (a["delta"][p][x][0], b["delta"][q][remap[x]][0])
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return len(seen)


class Tracing(unittest.TestCase):
    def test_spans_nest_and_self_times_add_up(self):
        from mullertools import cli
        tracer = spans.Tracer()
        tracer.install()
        try:
            SCRATCH.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
                path = Path(tmp) / "cond.json"
                path.write_text(inputs.condition_text("abc", inputs.exactly_two(3)))
                tracer.begin_command("0:zt2parity:one")
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    self.assertEqual(cli.main(["zt2parity", str(path)]), 0)
        finally:
            tracer.uninstall()
        self.assertFalse(tracer.missing)
        top = [s for s in tracer.spans if s[3] == -1]
        self.assertEqual(len(top), 1)
        totals = tracer.totals()
        wall = (top[0][2] - top[0][1]) / 1e9
        busy = sum(v for (name, unit) in spans.METRICS if unit == "s"
                   for v in [totals[name]])
        self.assertAlmostEqual(busy, wall, delta=wall * 0.05)
        self.assertEqual(totals["zielonka.tree_calls"], 1)
        self.assertEqual(totals["zielonka.leaves"],
                         oracle.leaf_count(oracle.zielonka(3, inputs.exactly_two(3))))
        self.assertGreater(totals["zielonka.parity_aut_s"], 0)
        self.assertEqual(cli.main.__name__, "main")  # the original is back

    def test_missing_name_is_reported_not_raised(self):
        saved = dict(spans.LAYERS)
        spans.LAYERS["core.scc_s"] = saved["core.scc_s"] + ["core.cycle_kernel_gone"]
        try:
            tracer = spans.Tracer()
            tracer.install()
            tracer.uninstall()
        finally:
            spans.LAYERS.clear()
            spans.LAYERS.update(saved)
        self.assertEqual(tracer.missing, ["mullertools.core.cycle_kernel_gone"])


class Contract(unittest.TestCase):
    def test_refuses_without_the_program(self):
        SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   "automata-check", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=tmp, capture_output=True,
                                  text=True, timeout=60, env=dict(os.environ, PYTHONPATH=""))
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")

    def test_benchmark_json_names_the_metrics_it_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(inputs.WORKLOADS))
        self.assertEqual([m["name"] for m in spec["per_layer"]], [n for n, _ in spans.METRICS])
        self.assertEqual({n for n, _ in spans.METRICS},
                         set(spans.LAYERS) | set(spans.COUNTS) | set(spans.YIELDS))
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         {"setup_s", "wall_s", "verdict_s_p50", "verdict_s_tail", "peak_rss_mb"})


if __name__ == "__main__":
    unittest.main()
