"""Command line front end.

Usage:
  vpshell build      --n N --s S [--labels] [--format json|dot] [-o PATH]
  vpshell verify-el  --n N --s S [--sabotage NAME] [-o PATH]
  vpshell count      --n N --s S [--method M] [-o PATH]
  vpshell sequence   --s S --max-n N [-o PATH]

Exit codes: 0 success, 1 verification failure, 2 oracle mismatch, 3
budget exceeded or out of memory, 4 bad input (a negative budget too) or
an -o path or stdout that cannot be written (a closed pipe, a full disk).
build, verify-el and count refuse over --max-elements (default 10^6)
elements, or an s over it, checked first; then a route charged chains
refuses over --max-chains (default 10^7) before any walk: verify-el
--sabotage drop-tie-break lists every maximal chain and is charged them
first, the two label sabotages only once the face count rejects their lex
order, before the chains are listed; count --method homology lists none
but is charged them all, a bound on the (n!)^s (n-1)! rows of its last
step; count --method enumerate lists the decreasing ones; euler, mobius
and recursion are charged none.  sequence has no budget.
Identical invocations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace

from . import complexes, labeling, spherecount, vecpart
from .errors import OracleMismatch, ResourceLimit, VpshellError
from .poset import poset_to_dot, poset_to_json

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3
EXIT_BAD_INPUT = 4

DEFAULT_MAX_ELEMENTS = 10 ** 6
DEFAULT_MAX_CHAINS = 10 ** 7


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; the contract here is 4
    def error(self, message):
        raise VpshellError(message)

    # argparse drops a failed help write; _emit makes it exit 4
    def print_help(self, file=None):
        _emit(self.format_help(), None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="vpshell", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_n=True, **budgets):
        if with_n:
            sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--s", type=int, required=True,
                        help="number of labelings (at least 1)")
        sp.add_argument("-o", "--out", default=None,
                        help="write output here instead of stdout")
        for name, default in budgets.items():
            sp.add_argument(f"--max-{name}", type=int, default=default)

    b = sub.add_parser("build", help="emit the validated poset")
    common(b, elements=DEFAULT_MAX_ELEMENTS)
    b.add_argument("--labels", action="store_true",
                   help="attach edge labels to covers")
    b.add_argument("--format", dest="fmt", choices=("json", "dot"),
                   default="json")

    v = sub.add_parser("verify-el", help="check the EL property")
    common(v, elements=DEFAULT_MAX_ELEMENTS, chains=DEFAULT_MAX_CHAINS)
    v.add_argument("--sabotage", choices=labeling.SABOTAGES, default=None,
                   help="inject a deliberate defect first")

    c = sub.add_parser("count", help="count spheres in the wedge")
    common(c, elements=DEFAULT_MAX_ELEMENTS, chains=DEFAULT_MAX_CHAINS)
    c.add_argument("--method", choices=spherecount.METHODS + ("all",),
                   default="all")

    q = sub.add_parser("sequence", help="totals for n = 1..max-n, recursion only")
    common(q, with_n=False)
    q.add_argument("--max-n", type=int, required=True)
    return parser


def _parse(argv) -> argparse.Namespace:
    """Parsed arguments, sizes and budgets checked."""
    args = _build_parser().parse_args(argv)
    if args.s < 1 or getattr(args, "n", 1) < 1 \
            or getattr(args, "max_n", 1) < 1:
        raise VpshellError("n, s, and max-n must be positive")
    if min(getattr(args, "max_elements", 0),
           getattr(args, "max_chains", 0)) < 0:
        raise VpshellError("a budget must not be negative")
    return args


def _emit(text, out: str | None) -> None:
    """Write text, a str or an iterable of str pieces, to stdout or to the
    file out, each piece as it arrives; a failed write is a VpshellError."""
    try:
        with (contextlib.nullcontext(sys.stdout) if out is None
              else open(out, "w")) as fh:
            last = ""
            for last in (text,) if isinstance(text, str) else text:
                fh.write(last)
            if not last.endswith("\n"):  # stdout and a file get the same bytes
                fh.write("\n")
            fh.flush()  # so stdout fails here, not at interpreter exit
    except OSError as exc:
        if out is None and sys.stdout is sys.__stdout__:
            # stdout's leftover buffer is flushed again at exit: to nowhere
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        raise VpshellError(f"cannot write {'stdout' if out is None else out}: "
                           f"{exc.strerror}") from None


def _cmd_build(args: argparse.Namespace) -> int:
    vecpart.check_budgets(args.n, args.s, args.max_elements)
    p = vecpart.vector_partition_poset(args.n, args.s)
    write = poset_to_dot if args.fmt == "dot" else poset_to_json
    _emit(write(p if args.labels else replace(p, up_labels=None),
                vecpart.element_texts(p.elements)), args.out)
    return EXIT_OK


def _cmd_verify_el(args: argparse.Namespace) -> int:
    # drop-tie-break's defect is its order, always listed with every maximal
    # chain, so it is charged them now; a label defect's lex order is listed,
    # to name where it fails, only once the face count rejects it
    listed = args.sabotage == "drop-tie-break"
    vecpart.check_budgets(args.n, args.s, args.max_elements,
                          args.max_chains if listed else None)
    p = vecpart.vector_partition_poset(args.n, args.s)
    if args.sabotage is None:
        report = labeling.verify_el(p)
        _emit(report.text(), args.out)
        return EXIT_OK if report.ok else EXIT_VERIFY
    # a defect must be caught by at least one of the two verifiers
    q = replace(p, up_labels=labeling.sabotaged_label_map(p, args.sabotage))
    report, problem = labeling.verify_el(q), None
    if listed or labeling.lex_homology_facets(q) is None:
        if not listed:
            vecpart.check_budgets(args.n, args.s, None, args.max_chains)
        c = complexes.order_complex(p)
        order = labeling.sabotaged_shelling_order(q, c, args.sabotage)
        problem = complexes.verify_shelling(c, order).problem
        if not listed and problem is None:
            raise OracleMismatch("the face count rejects a valid order")
    tag = f"[sabotage {args.sabotage}]"
    _emit(f"{tag} {report.text()}\n{tag} shelling "
          + ("valid" if problem is None else f"INVALID: {problem}"), args.out)
    return EXIT_OK if report.ok and problem is None else EXIT_VERIFY


def _cmd_count(args: argparse.Namespace) -> int:
    methods = (spherecount.METHODS if args.method == "all"
               else (args.method,))
    if methods != ("recursion",):
        # homology is charged the maximal chains, enumerate the decreasing ones
        vecpart.check_budgets(args.n, args.s, args.max_elements,
                              args.max_chains if "homology" in methods
                              else None)
        if "enumerate" in methods and (total := spherecount.count_total(
                args.n, args.s)) > args.max_chains:
            raise ResourceLimit(f"poset has {total} decreasing chains, "
                                f"budget is {args.max_chains}")
    cert = spherecount.sphere_count_certificate(args.n, args.s, methods)
    _emit(json.dumps(cert, sort_keys=True), args.out)
    return EXIT_OK if cert["match"] else EXIT_MISMATCH


def _cmd_sequence(args: argparse.Namespace) -> int:
    # one pass per table; at s = 1 a tree number that differs exits 2
    totals = spherecount.count_totals(args.max_n, args.s)
    trees = (spherecount.nonambiguous_tree_counts(args.max_n - 1)
             if args.s == 1 else None)
    rows = ["n,s,count" + (",tree_count" if trees else "")] + [
        f"{n},{args.s},{t}" + (f",{trees[n - 1]}" if trees else "")
        for n, t in enumerate(totals, 1)]
    _emit("\n".join(rows) + "\n", args.out)
    return EXIT_MISMATCH if trees and trees != totals else EXIT_OK


_COMMANDS = {
    "build": _cmd_build,
    "verify-el": _cmd_verify_el,
    "count": _cmd_count,
    "sequence": _cmd_sequence,
}


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's limit on int-to-str digits (4,300 by default
    since Python 3.10.7): counts outgrow it.  Arguments are parsed before
    this, under the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        with _unlimited_int_digits():
            return _COMMANDS[args.command](args)
    except ResourceLimit as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("budget exceeded: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except VpshellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
