#!/usr/bin/env python3
"""Benchmark of the mullertools command line, run in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's inputs are generated from the
seed (inputs.py) and written under .bench_build/perfbench; then one caller
issues the workload's command list through mullertools.cli.main, one
command after the other with --threads 1, pass after pass while at least
half of the next pass fits in S seconds.  Every verdict is checked against
answers computed without mullertools (checks.py, oracle.py).

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 the first pass runs untraced as the reference and the
remaining passes run with spans at every layer boundary (spans.py), and the
JSON object carries the per-layer metrics.  Readable tables go to stdout
before it.  Exit status 2 means the benchmark could not run.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

import checks  # noqa: E402  (sibling modules, found through the script directory)
import inputs  # noqa: E402
import spans  # noqa: E402

SETUP_RUNS = 5
# verdict_s_tail: the highest percentile with at least ten commands beyond it
# at the workload's usual command count per run (see BENCHMARK.json)
TAIL_PERCENTILE = {"chromatic-memory": 85, "muller-games": 75, "automata-check": 90}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def prepare(workload: str, seed: int, directory: Path):
    """Import the program, generate the inputs and write them: the work
    setup_s times.  Returns the cli module, file texts, cases and paths."""
    sys.path.insert(0, str(SRC))
    import mullertools.cli as cli

    files, cases = inputs.build(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in files.items():
        paths[name] = directory / name
        paths[name].write_text(text)
    return cli, files, cases, paths


def measure_setup(workload: str, seed: int, base: Path) -> float:
    """Median wall time of fresh processes that start, import, generate and
    write the inputs, then exit."""
    times = []
    for i in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__)), "--setup-probe",
                        str(base / f"setup-{i}"), "--workload", workload,
                        "--seed", str(seed)], check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Issues commands through cli.main and keeps one record per command."""

    def __init__(self, cli, files, paths, directory: Path):
        self.cli = cli
        self.files = files
        self.paths = paths
        self.directory = directory
        self.tracer = None
        self.records: list[dict] = []
        self.first: dict[str, dict] = {}  # case id -> its first-pass record

    def execute(self, argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse refusing the command line
                rc = exc.code
            except Exception as exc:  # a traceback is a failed command
                rc = exc
        return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()

    def run_case(self, case, pass_no: int) -> tuple[dict, str]:
        """Runs one command; returns its record and its full stdout."""
        if self.tracer is not None:
            self.tracer.begin_command(f"{pass_no}:{case['argv'][0]}:{case['id']}")
        argv = [str(self.paths.get(a, a)) for a in case["argv"]]
        seconds, rc, out, err = self.execute(argv)
        record = {"case": case, "pass": pass_no, "seconds": seconds,
                  "rc": rc, "out": out, "err": err}
        if case["id"] in self.first:
            # later passes keep a digest, so memory does not grow with passes
            record.update(out=_digest(out), err="")
        else:
            self.first[case["id"]] = record
        self.records.append(record)
        return record, out

    def run_pass(self, cases, pass_no: int) -> float:
        start = time.perf_counter()
        for case in cases:
            record, out = self.run_case(case, pass_no)
            if case["check"] == "solve" and record["rc"] == 0 and '"winner": "eve"' in out:
                # the returned strategy must pass verify: a second code path
                strategy = self.directory / f"strategy-{case['id']}.json"
                strategy.write_text(json.dumps(json.loads(out)["strategy"]))
                self.paths[strategy.name] = strategy
                self.run_case({"id": f"{case['id']}/verify", "check": "verify",
                               "argv": ["verify", case["argv"][1], strategy.name,
                                        "--threads", "1"],
                               "expect": {"verified": True}}, pass_no)
        return time.perf_counter() - start


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _same(rc) -> object:
    return rc if isinstance(rc, int) else repr(rc)


def judge(runner: Runner) -> list[tuple[dict, str]]:
    """(record, reason) for every wrong command.  The first pass is checked
    against the oracles; later passes must repeat its output exactly."""
    first = runner.first
    reasons = {cid: checks.check(r["case"], r["rc"], r["out"], r["err"], runner.files)
               for cid, r in first.items()}
    seen = {cid: (_same(r["rc"]), _digest(r["out"])) for cid, r in first.items()}
    wrong = []
    for record in runner.records:
        cid = record["case"]["id"]
        reason = reasons[cid]
        if record is not first[cid] and (_same(record["rc"]), record["out"]) != seen[cid]:
            reason = "output differs from the first pass"
        if reason:
            wrong.append((record, reason))
    for group, reason in checks.check_twins(first.values()):
        wrong.extend((r, reason) for r in first.values()
                     if r["case"]["expect"].get("twin") == group)
    for cid, record in first.items():
        if (record["case"]["check"] == "solve" and not reasons[cid]
                and '"winner": "adam"' in record["out"]):
            reason = dual_solve(runner, record["case"])
            if reason:
                wrong.append((record, reason))
    return wrong


def dual_solve(runner: Runner, case) -> str | None:
    """An opponent win is confirmed by solving the dual game, where the
    players swap roles, and verifying the strategy that solve returns."""
    name = f"dual-{case['argv'][1]}"
    runner.paths[name] = runner.directory / name
    runner.paths[name].write_text(inputs.dual_game_text(runner.files[case["argv"][1]]))
    _, rc, out, _ = runner.execute(["solve", str(runner.paths[name]), "--threads", "1"])
    if rc != 0 or '"winner": "eve"' not in out:
        return "the dual game is not won by the swapped player"
    strategy = runner.directory / f"strategy-{name}"
    strategy.write_text(json.dumps(json.loads(out)["strategy"]))
    _, rc, _, _ = runner.execute(["verify", str(runner.paths[name]), str(strategy),
                                  "--threads", "1"])
    return None if rc == 0 else "the dual game's strategy does not verify"


def loop(runner: Runner, cases, seconds: float, tracer=None) -> tuple[list[float], list[float]]:
    """Passes while half of another one fits before the deadline.  With a tracer
    the first pass runs untraced and the rest traced.  Returns the wall times
    of untraced and of traced passes."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None and plain:
            runner.tracer = tracer
            tracer.install()
            try:
                traced.append(runner.run_pass(cases, len(plain) + len(traced)))
            finally:
                tracer.uninstall()
                runner.tracer = None
            last = traced
        else:
            plain.append(runner.run_pass(cases, len(plain)))
            last = plain
        elapsed = time.perf_counter() - start
        if tracer is not None and not traced:
            continue
        # another pass only if at least half of it fits: a run lasts
        # seconds give or take half a pass
        if elapsed + statistics.median(last) / 2 > seconds:
            return plain, traced


def run_probes(runner: Runner, cases) -> list[str]:
    """Commands that reproduce known defects, run once after the measured
    passes.  Returns the ones whose output is still wrong."""
    still_open = []
    for case in cases:
        argv = [str(runner.paths.get(a, a)) for a in case["argv"]]
        _, rc, out, err = runner.execute(argv)
        reason = checks.check(case, rc, out, err, runner.files)
        if reason:
            still_open.append(f"{case['id']}: {reason}")
    return still_open


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "mullertools" / "cli.py").is_file():
        fail(f"no mullertools sources under {SRC}; run from a full checkout")
    if args.setup_probe:
        prepare(args.workload, args.seed, args.setup_probe)
        return 0

    base = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = measure_setup(args.workload, args.seed, base)
        cli, files, all_cases, paths = prepare(args.workload, args.seed, base / "inputs")
        cases = [c for c in all_cases if not c["expect"].get("defect")]
        probes = [c for c in all_cases if c["expect"].get("defect")]
        runner = Runner(cli, files, paths, base / "inputs")
        tracer = spans.Tracer() if args.trace else None
        plain, traced = loop(runner, cases, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wrong = judge(runner)
        still_open = run_probes(runner, probes)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    attempted = len(runner.records)
    for record, reason in wrong:
        print(f"WRONG {record['case']['id']} (pass {record['pass']}): {reason}")
    print(f"defect probes: {len(still_open)} of {len(probes)} still reproduce"
          + "".join(f"\n  {line}" for line in still_open))
    print(f"failed_share {len(wrong) / attempted:.4f} ratio"
          f" ({len(wrong)} of {attempted} commands)")
    if tracer is None:
        metrics = end_to_end(args.workload, runner.records, plain, setup_s, peak_rss_mb)
    else:
        metrics = per_layer(args.workload, args.seed, tracer, plain, traced)
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(wrong), "metrics": metrics}))
    return 0


def end_to_end(workload, records, walls, setup_s, peak_rss_mb) -> dict:
    times = [r["seconds"] for r in records]
    pct = TAIL_PERCENTILE[workload]
    tail = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
    beyond = sum(1 for t in times if t > tail)
    values = [("setup_s", setup_s, "s", f"median of {SETUP_RUNS} fresh processes"),
              ("wall_s", statistics.median(walls), "s", f"median of {len(walls)} passes"),
              ("verdict_s_p50", statistics.median(times), "s", f"{len(times)} commands"),
              ("verdict_s_tail", tail, "s",
               f"p{pct} of {len(times)} commands, {beyond} beyond it"),
              ("peak_rss_mb", peak_rss_mb, "MB", "")]
    print(f"workload {workload}: {len(walls)} passes, {len(times)} commands")
    for name, value, unit, note in values:
        print(f"  {name:<15} {value:12.6f} {unit:<5} {note}")
    return {name: {"value": value, "unit": unit} for name, value, unit, _ in values}


def per_layer(workload, seed, tracer, plain, traced) -> dict:
    n = len(traced)
    totals = {k: v / n for k, v in tracer.totals().items()}
    units = dict(spans.METRICS)
    path = WORK / f"spans-{workload}-{seed}.json"
    tracer.write(path)
    overhead = statistics.median(traced) - statistics.median(plain)
    print(f"workload {workload}: {len(plain)} untraced and {n} traced passes;"
          f" {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    print(f"tracing overhead {overhead:.4f} s per pass"
          f" (traced {statistics.median(traced):.4f} s, untraced {statistics.median(plain):.4f} s)")
    for name in tracer.missing:
        print(f"missing span: {name} no longer exists")
    print("per pass:")
    for name, unit in spans.METRICS:
        print(f"  {name:<26} {totals[name]:14.6f} {unit}")
    print("share of traced self time, by subcommand:")
    by_kind: dict[str, list[int]] = {}
    for i, label in enumerate(tracer.commands):
        kind = label.split(":")[1]
        by_kind.setdefault(kind, []).append(i)
    for kind, ids in sorted(by_kind.items()):
        part = {k: v for k, v in tracer.totals(ids).items() if units[k] == "s"}
        total = sum(part.values()) or 1.0
        top = sorted(part.items(), key=lambda kv: -kv[1])[:4]
        print(f"  {kind:<11} " + ", ".join(f"{k} {v / total:.0%}" for k, v in top if v))
    return {name: {"value": totals[name], "unit": unit} for name, unit in spans.METRICS}


if __name__ == "__main__":
    sys.exit(main())
