"""Spans at the layer boundaries of mullertools, installed from outside.

Tracer.install() replaces each public function at the module-global name its
callers look up (mullertools.cli.min_rabin_size, mullertools.games.
product_with_parity, ...) with a wrapper that records a span, and
uninstall() puts the originals back, so no program file changes.  Private
helpers are not wrapped: their time is self time of their public caller.  A
name that no longer exists is listed as missing instead of failing the run.
"""
from __future__ import annotations

import importlib
import json
import time

# time metric -> wrapped names (module.attribute under mullertools); the
# metric sums the self time of their spans
LAYERS = {
    "cli.self_s": ["cli.main"],
    "core.json_s": ["cli.condition_from_json", "cli.condition_to_json",
                    "cli.automaton_from_json", "cli.automaton_to_json",
                    "games.condition_from_json", "games.condition_to_json"],
    "core.scc_s": ["core.strongly_connected_components",
                   "rabin.strongly_connected_components",
                   "games.strongly_connected_components",
                   "reduction.strongly_connected_components"],
    "zielonka.tree_s": ["zielonka.zielonka_tree", "cli.zielonka_tree",
                        "graphs.zielonka_tree"],
    "zielonka.parity_aut_s": ["zielonka.parity_automaton_from_tree",
                              "reduction.parity_automaton_from_tree",
                              "cli.parity_automaton", "games.parity_automaton"],
    "reduction.minparity_s": ["cli.minimize_parity"],
    "reduction.genbuchi_s": ["cli.minimize_genbuchi"],
    "rabin.structure_search_s": ["cli.min_rabin_size", "rabin.min_rabin_size"],
    "rabin.typeness_s": ["cli.check_rabin_typeable", "rabin.check_rabin_typeable"],
    "rabin.synth_s": ["cli.synthesize_rabin_pairs"],
    "rabin.rabin_equiv_s": ["cli.rabin_equivalent"],
    "rabin.muller_equiv_s": ["cli.muller_equivalent"],
    "graphs.chromatic_s": ["cli.chromatic_number"],
    "graphs.translate_s": ["cli.colouring_to_rabin", "cli.rabin_to_colouring",
                           "cli.graph_edge_condition", "cli.edge_alternation_automaton"],
    "games.solve_s": ["cli.solve_muller_game"],
    "games.product_s": ["games.product_with_parity"],
    "games.parity_solve_s": ["games.solve_parity_game"],
    "games.verify_s": ["cli.verify_strategy"],
    "games.memsearch_s": ["cli.min_chromatic_memory_exhaustive"],
}

# count metric -> (time metric whose spans it reads, value per call)
COUNTS = {
    "core.scc_calls": ("core.scc_s", lambda result: 1),
    "zielonka.tree_calls": ("zielonka.tree_s", lambda result: 1),
    "zielonka.leaves": ("zielonka.tree_s", lambda tree: tree.leaf_count()),
    "games.product_vertices": ("games.product_s", lambda p: len(p.game.eve)),
    "games.product_edges": ("games.product_s", lambda p: len(p.game.edges)),
}

# generators: every item drawn is counted, no span
YIELDS = {"games.memory_tables": ["games.canonical_structures"]}

METRICS = [  # report order, with units
    ("cli.self_s", "s"), ("core.json_s", "s"), ("core.scc_calls", "count"),
    ("core.scc_s", "s"), ("zielonka.tree_calls", "count"), ("zielonka.tree_s", "s"),
    ("zielonka.leaves", "count"), ("zielonka.parity_aut_s", "s"),
    ("reduction.minparity_s", "s"), ("reduction.genbuchi_s", "s"),
    ("rabin.structure_search_s", "s"), ("rabin.typeness_s", "s"),
    ("rabin.synth_s", "s"), ("rabin.rabin_equiv_s", "s"),
    ("rabin.muller_equiv_s", "s"), ("graphs.chromatic_s", "s"),
    ("graphs.translate_s", "s"), ("games.solve_s", "s"), ("games.product_s", "s"),
    ("games.product_vertices", "count"), ("games.product_edges", "count"),
    ("games.parity_solve_s", "s"), ("games.verify_s", "s"),
    ("games.memsearch_s", "s"), ("games.memory_tables", "count"),
]


class Tracer:
    """Records spans while installed.  Spans stay in memory as
    (name, start ns, end ns, parent span, command) tuples; parent is -1 at
    the top."""

    def __init__(self):
        self.names: list[str] = []
        self.commands: list[str] = []
        self.command = -1
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.self_ns: dict[tuple[str, int], int] = {}  # (metric, command) -> ns
        self.counts: dict[tuple[str, int], int] = {}
        self.missing: list[str] = []
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._saved = []

    def begin_command(self, label: str) -> None:
        self.commands.append(label)
        self.command = len(self.commands) - 1

    def install(self) -> None:
        counters = {}
        for count_metric, (metric, fn) in COUNTS.items():
            counters.setdefault(metric, []).append((count_metric, fn))
        for metric, targets in LAYERS.items():
            for target in targets:
                self._replace(target, lambda f, name, m=metric:
                              self._span(f, name, m, counters.get(m, [])))
        for metric, targets in YIELDS.items():
            for target in targets:
                self._replace(target, lambda f, name, m=metric: self._yields(f, m))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _replace(self, target: str, make) -> None:
        module_name, attr = target.rsplit(".", 1)
        try:
            module = importlib.import_module(f"mullertools.{module_name}")
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"mullertools.{target}")
            return
        self.names.append(f"mullertools.{target}")
        setattr(module, attr, make(original, len(self.names) - 1))
        self._saved.append((module, attr, original))

    def _add(self, table, key, value) -> None:
        table[key] = table.get(key, 0) + value

    def _span(self, fn, name: int, metric: str, counters):
        clock = time.perf_counter_ns
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent, self.command)
                self._add(self.self_ns, (metric, self.command), end - start - frame[1])
                if stack:
                    stack[-1][1] += end - start
            for count_metric, value in counters:
                self._add(self.counts, (count_metric, self.command), value(result))
            if stack:
                # counting is tracer work: keep it out of the parent's self time
                stack[-1][1] += clock() - end
            return result

        return wrapper

    def _yields(self, fn, metric: str):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self._add(self.counts, (metric, self.command), 1)
                yield item

        return wrapper

    def totals(self, commands=None) -> dict[str, float]:
        """Per-layer values summed over the given command ids (default all):
        seconds of self time, or counts."""
        keep = set(range(len(self.commands))) if commands is None else set(commands)
        out = {name: 0 for name, _ in METRICS}
        for (metric, cmd), ns in self.self_ns.items():
            if cmd in keep:
                out[metric] += ns / 1e9
        for (metric, cmd), n in self.counts.items():
            if cmd in keep:
                out[metric] += n
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "command"],
                       "names": self.names, "commands": self.commands,
                       "missing": self.missing, "spans": self.spans}, fh,
                      separators=(",", ":"))
