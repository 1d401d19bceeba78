"""The benchmark's workloads: which CLI jobs each one runs, and the checks
that every job's output must pass.

A job is the argument list after `python -m vpshell`.  Its check takes the
exit code and the decoded stdout and returns a list of problems; an empty
list means the output is correct.  Expected values are constants taken
from the paper's counts and from the poset sizes of the grid.
"""
from __future__ import annotations

import json
import re
from typing import Callable, NamedTuple

COUNT_METHODS = ("enumerate", "euler", "homology", "mobius", "recursion")

# (n, s) -> number of spheres in the wedge
SPHERE_COUNTS = {(4, 1): 33, (3, 2): 46, (3, 3): 352, (3, 4): 2350,
                 (4, 2): 1899}

# `sequence --s 3 --max-n 150`: rows n -> count that must read exactly
SEQUENCE_S = 3
SEQUENCE_MAX_N = 150
SEQUENCE_ROWS = {3: 352, 4: 63111}

# sabotage -> (EL verdict word, shelling verdict word)
SABOTAGE_VERDICTS = {
    "swap-bottom-labels": ("FAILED", "INVALID"),
    "drop-tie-break": ("passed", "INVALID"),
    "min-merge-label": ("FAILED", "valid"),
}

# (n, s) -> (elements including bottom and top, covers)
POSET_SIZES = {(4, 2): (1614, 6796), (5, 1): (1497, 6995),
               (6, 1): (22483, 145181)}


class Job(NamedTuple):
    args: tuple
    check: Callable[[int, str], list]
    large: bool = False

    @property
    def label(self) -> str:
        return " ".join(self.args)


def _exit(code: int, want: int) -> list:
    return [] if code == want else [f"exit code {code}, expected {want}"]


def _count(n: int, s: int, large: bool = False) -> Job:
    want = SPHERE_COUNTS[(n, s)]

    def check(code, out):
        doc = json.loads(out)
        problems = _exit(code, 0)
        if doc.get("match") is not True:
            problems.append("match is not true")
        methods = doc.get("methods", {})
        if sorted(methods) != list(COUNT_METHODS):
            problems.append(f"methods {sorted(methods)}")
        problems += [f"{m} = {v}, expected {want}"
                     for m, v in sorted(methods.items()) if v != want]
        return problems

    return Job(("count", "--n", str(n), "--s", str(s)), check, large)


def _sequence() -> Job:
    def check(code, out):
        lines = out.splitlines()
        problems = _exit(code, 0)
        if lines[:1] != ["n,s,count"]:
            problems.append(f"header {lines[:1]}")
        if len(lines) != SEQUENCE_MAX_N + 1:
            problems.append(f"{len(lines) - 1} rows, expected {SEQUENCE_MAX_N}")
        for n, want in SEQUENCE_ROWS.items():
            row = f"{n},{SEQUENCE_S},{want}"
            if lines[n:n + 1] != [row]:
                problems.append(f"row {n} reads {lines[n:n + 1]}, expected {row}")
        return problems

    return Job(("sequence", "--s", str(SEQUENCE_S),
                "--max-n", str(SEQUENCE_MAX_N)), check)


_EL_PASSED = "EL verification passed"


def _verify_el(n: int, s: int) -> Job:
    def check(code, out):
        problems = _exit(code, 0)
        if not out.startswith(_EL_PASSED):
            problems.append(f"verdict {out[:80]!r}")
        return problems

    return Job(("verify-el", "--n", str(n), "--s", str(s)), check)


def _sabotage(name: str, large: bool = False) -> Job:
    el_word, shell_word = SABOTAGE_VERDICTS[name]
    tag = f"[sabotage {name}] "

    def check(code, out):
        problems = _exit(code, 1)
        lines = out.splitlines()
        if len(lines) != 2:
            return problems + [f"{len(lines)} lines, expected 2"]
        el, shell = lines
        if not el.startswith(f"{tag}EL verification {el_word}"):
            problems.append(f"EL verdict {el!r}, expected {el_word}")
        if not shell.startswith(f"{tag}shelling {shell_word}"):
            problems.append(f"shelling verdict {shell!r}, expected {shell_word}")
        return problems

    return Job(("verify-el", "--n", "3", "--s", "4", "--sabotage", name),
               check, large)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _build_json(n: int, s: int, labels: bool, large: bool = False) -> Job:
    elements, covers = POSET_SIZES[(n, s)]

    def check(code, out):
        doc = json.loads(out)
        problems = _exit(code, 0)
        if len(doc["elements"]) != elements:
            problems.append(f"{len(doc['elements'])} elements, expected {elements}")
        if len(doc["covers"]) != covers:
            problems.append(f"{len(doc['covers'])} covers, expected {covers}")
        if labels:
            bad = [c for c in doc["covers"]
                   if not (isinstance(c, dict) and len(c["label"]) == 3
                           and all(map(_is_int, c["label"])))]
        else:
            bad = [c for c in doc["covers"]
                   if not (isinstance(c, list) and len(c) == 2)]
        if bad:
            problems.append(f"{len(bad)} malformed covers, first {bad[0]}")
        return problems

    args = ("build", "--n", str(n), "--s", str(s)) + (("--labels",) if labels else ())
    return Job(args, check, large)


_DOT_NODE = re.compile(r'  n\d+ \[label=".*"\];')
_DOT_LABELED_EDGE = re.compile(r'  n\d+ -> n\d+ \[label="\(-?\d+, -?\d+, -?\d+\)"\];')


def _build_dot(n: int, s: int) -> Job:
    elements, covers = POSET_SIZES[(n, s)]

    def check(code, out):
        problems = _exit(code, 0)
        lines = out.splitlines()
        if lines[:2] != ["digraph poset {", "  rankdir=BT;"] or lines[-1:] != ["}"]:
            problems.append("not a digraph document")
        body = lines[2:-1]
        nodes = sum(1 for line in body if _DOT_NODE.fullmatch(line))
        edges = sum(1 for line in body if _DOT_LABELED_EDGE.fullmatch(line))
        if nodes != elements:
            problems.append(f"{nodes} nodes, expected {elements}")
        if edges != covers:
            problems.append(f"{edges} labelled edges, expected {covers}")
        if nodes + edges != len(body):
            problems.append(f"{len(body) - nodes - edges} unrecognised lines")
        return problems

    return Job(("build", "--n", str(n), "--s", str(s), "--labels",
                "--format", "dot"), check)


# name -> jobs; exactly one job per workload is the large job.  Why each
# workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "certify": (
        _count(4, 1), _count(3, 2), _count(3, 3), _count(3, 4),
        _count(4, 2, large=True), _sequence()),
    "verify": (
        _verify_el(3, 4), _verify_el(4, 2), _verify_el(5, 1),
        _sabotage("swap-bottom-labels"), _sabotage("drop-tie-break"),
        _sabotage("min-merge-label", large=True)),
    "build": (
        _build_dot(4, 2), _build_json(5, 1, labels=True),
        _build_json(6, 1, labels=False),
        _build_json(6, 1, labels=True, large=True)),
}
