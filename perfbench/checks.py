"""Verdict checks: each rule compares one command's exit code and output with
the answer inputs.py recorded, using only oracle.py.

A rule returns None when the output is right and a one-line reason when it
is not.
"""
from __future__ import annotations

import itertools
import json
import re

from oracle import (accepts, closed_walk_sets, parse_automaton,
                    rabin_typeable_at, same_language_on, union_witness,
                    automaton_edges)


def _json(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def canonical_states(aut: dict) -> list[int]:
    """States in the order the package numbers them: breadth-first from the
    initial state, successors taken in input-alphabet order."""
    order = [aut["initial"]]
    seen = {aut["initial"]}
    for q in order:
        for target, _ in aut["delta"][q]:
            if target not in seen:
                seen.add(target)
                order.append(target)
    return order


def reachable_typeable(aut: dict) -> bool:
    return all(rabin_typeable_at(aut, q) for q in canonical_states(aut))


def _structure_typeable(table, k: int, g: int, accepting) -> bool:
    delta = [[(table[q * g + a], a) for a in range(g)] for q in range(k)]
    aut = {"n": k, "initial": 0, "delta": delta, "acc": ("muller", accepting)}
    return reachable_typeable(aut)


def no_smaller_structure(size: int, g: int, accepting) -> bool:
    """No table with fewer states is typeable; tried in full, so only for
    sizes where that is cheap."""
    for k in range(1, size):
        for table in itertools.product(range(k), repeat=k * g):
            if _structure_typeable(table, k, g, accepting):
                return False
    return True


def check_memchrom(case, rc, out, err, text):
    data = _json(out)
    if rc != 0 or data is None:
        return f"exit {rc}"
    size = data["chromatic_memory"]
    want = case["expect"]["size"]
    if want is not None and size != want:
        return f"chromatic memory {size}, expected {want}"
    cond = json.loads(text[case["argv"][1]])
    names = cond["alphabet"]
    accepting = frozenset(sum(1 << names.index(s) for s in group)
                          for group in cond["accepting"])
    if size is None:
        return None if data["witness"] is None else "witness without a size"
    if size > case["expect"].get("at_most", size):
        return f"chromatic memory {size} above the tree's leaf count"
    witness = parse_automaton(json.dumps(data["witness"]))
    if witness["n"] != size or witness["inputs"] != names:
        return "witness does not match the reported size"
    if not reachable_typeable(dict(witness, acc=("muller", accepting))):
        return "witness structure is not Rabin-typeable"
    if size <= 3 and not no_smaller_structure(size, len(names), accepting):
        return f"a structure with fewer than {size} states is typeable"
    return None


def check_reduce(case, rc, out, err, text):
    data = _json(out)
    chi = case["expect"]["chromatic"]
    if rc != 0 or data is None:
        return f"exit {rc}"
    if (data["chromatic_number"], data["min_rabin_size"], data["match"]) != (chi, chi, True):
        return f"got {data}, chromatic number is {chi}"
    if data["colouring_roundtrip_classes"] > chi:
        return "colouring round trip uses too many classes"
    return None


def check_solve(case, rc, out, err, text):
    data = _json(out)
    if rc != 0 or data is None or data.get("winner") not in ("eve", "adam"):
        return f"exit {rc}"
    if (data["winner"] == "eve") != (data["strategy"] is not None):
        return "strategy present exactly when the colour player wins"
    return None


def check_verify(case, rc, out, err, text):
    want = case["expect"]["verified"]
    data = _json(out)
    if data is None or data.get("verified") is not want or rc != (0 if want else 1):
        return f"exit {rc}, expected verified={want}"
    return None


def check_memgame(case, rc, out, err, text):
    data = _json(out)
    if rc != 0 or data is None or data["min_chromatic_memory"] != case["expect"]["size"]:
        return f"exit {rc}, output {out.strip()[:80]!r}"
    return None


WITNESS = re.compile(r"not typeable: state (\d+) ")


def check_rabincheck(case, rc, out, err, text):
    aut = parse_automaton(text[case["argv"][1]])
    if rc == 1:
        found = WITNESS.search(err)
        if not found:
            return "untypeable verdict without a witness state"
        order = canonical_states(aut)
        state = int(found.group(1))
        if state >= len(order):
            return f"witness state {state} out of range"
        sets = closed_walk_sets(aut["n"], automaton_edges(aut), order[state])
        if not union_witness(aut["acc"], sets):
            return f"state {state} has no two rejecting cycles with an accepting union"
        return None
    if rc != 0:
        return f"exit {rc}"
    rabin = parse_automaton(out)
    if rabin["acc"][0] != "rabin":
        return "pairs not reported as a Rabin acceptance"
    if not reachable_typeable(aut):
        return "typeable verdict, yet rejecting cycles with an accepting union exist"
    if not same_language_on(aut, rabin, case["expect"].get("words", [])):
        return "synthesised pairs change the language"
    return None


def check_equiv(case, rc, out, err, text):
    want = case["expect"]
    data = _json(out)
    if (data is None or data.get("equivalent") is not want["equivalent"]
            or data.get("method") != want["method"]
            or rc != (0 if want["equivalent"] else 1)):
        return f"exit {rc}, output {out.strip()[:80]!r}, expected {want}"
    return None


def check_minparity(case, rc, out, err, text):
    if rc != 0:
        return f"exit {rc}"
    small = parse_automaton(out)
    if small["acc"][0] != "parity" or small["n"] != case["expect"]["states"]:
        return f"{small['n']} states, expected {case['expect']['states']}"
    if not same_language_on(parse_automaton(text[case["argv"][1]]), small,
                            case["expect"]["words"]):
        return "minimised automaton changes the language"
    return None


def check_minbuchi(case, rc, out, err, text):
    if rc != 0:
        return f"exit {rc}"
    small = parse_automaton(out)
    if small["n"] != 1 or small["acc"][0] != "genbuchi":
        return "expected one state with a generalised Buchi acceptance"
    letters = case["expect"]["letters"]
    # the single state echoes each letter as the output of the same name
    to_letters = [letters.index(name) for name in small["outputs"]]
    got = [sum(1 << to_letters[o] for o in range(len(to_letters)) if s >> o & 1)
           for s in small["acc"][1]]
    for seen in range(1, 1 << len(letters)):
        if accepts(("genbuchi", got), seen) != accepts(("genbuchi", case["expect"]["sets"]), seen):
            return f"letter set {seen:b} judged differently"
    return None


def check_refusal(case, rc, out, err, text):
    return None if rc == 2 else f"exit {rc}, expected a refusal with exit 2"


RULES = {"memchrom": check_memchrom, "reduce": check_reduce, "solve": check_solve,
         "verify": check_verify, "memgame": check_memgame,
         "rabincheck": check_rabincheck, "equiv": check_equiv,
         "minparity": check_minparity, "minbuchi": check_minbuchi,
         "refusal": check_refusal}


def check(case, rc, out, err, text) -> str | None:
    """rc is the exit code, or the exception cli.main raised."""
    if isinstance(rc, BaseException):
        return f"raised {type(rc).__name__}: {rc}"[:160]
    if rc == 3:
        return f"scale guard: {err.strip()[:120]}"
    return RULES[case["check"]](case, rc, out, err, text)


def check_twins(records) -> list[tuple[str, str]]:
    """(group, reason) for each group of relabelled copies of one condition
    whose chromatic memories differ."""
    sizes: dict[str, set] = {}
    for record in records:
        twin = record["case"]["expect"].get("twin")
        if twin:
            data = _json(record["out"])
            sizes.setdefault(twin, set()).add(data and data.get("chromatic_memory"))
    return [(twin, f"relabelled copies disagree: {sorted(map(str, found))}")
            for twin, found in sizes.items() if len(found) > 1]
