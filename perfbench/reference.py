"""Fixed work that samples how fast the machine is at the moment.

run.py runs it, as a fresh interpreter, before every job of a timed
pass and scales the run's times by the median of its times (see
NOTES.md).  It does not import vpshell, so no change to the package can
move it.  Its work resembles the package's: tuples of small integers
used as dictionary keys and set members, sorting, and a working set of
tens of megabytes built and then dropped.
"""
from itertools import combinations

EXPECTED = 84686  # what work() returns


def work() -> int:
    table: dict = {}
    for key in combinations(range(34), 4):
        table[key] = tuple(sorted(key, key=lambda v: (v * 7) % 34))
    blocks = {frozenset(v[:2]) for v in table.values()}
    ordered = sorted(table.items(), key=lambda kv: kv[1])
    return len(table) + len(blocks) + sum(v[0] for _, v in ordered[::16])


if __name__ == "__main__":
    print(work())
