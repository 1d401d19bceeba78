"""Run one vpshell CLI job with spans around the layer-boundary functions.

Usage: python3 tracejob.py SPANFILE CLI_ARG...

Every function named in BOUNDARIES is replaced, in each vpshell
module namespace that binds it, by a wrapper that records a span.  The
spans therefore follow the program's real call graph without any edit to
the package.  Spans are aggregated in memory per (name, parent) as
[calls, total seconds, self seconds] and written to SPANFILE once, when
the job ends, together with the size counts taken from boundary results.
Then vpshell.cli.main runs the job exactly as `python -m vpshell` would,
so its stdout is byte-identical to the untraced job's.
"""
import functools
import json
import sys
import time

# The layer-boundary functions to wrap, by module.
BOUNDARIES = {
    "vecpart": ("enumerate_elements", "vector_partition_poset"),
    "poset": ("build_poset", "maximal_chains", "mobius", "poset_to_json",
              "poset_to_dot"),
    "labeling": ("edge_label_map", "verify_el", "sabotaged_label_map",
                 "lex_shelling_order", "sabotaged_shelling_order"),
    "complexes": ("simplicial_complex", "order_complex", "betti",
                  "reduced_euler_characteristic", "verify_shelling"),
    "spherecount": ("sphere_count_certificate", "decreasing_chains",
                    "count_total"),
}

# boundary -> (size counter, its size taken from the boundary's result)
SIZE_OF = {
    "vecpart.enumerate_elements": ("vecpart.elements", len),
    "poset.build_poset": ("poset.covers", lambda p: len(p.covers)),
    "complexes.order_complex": ("complexes.facets", lambda c: len(c.facets)),
    "spherecount.decreasing_chains": ("spherecount.decreasing", len),
}
SIZE_COUNTS = tuple(key for key, _ in SIZE_OF.values())


class Tracer:
    """Spans and size counts of one job, kept in memory until it ends."""

    def __init__(self):
        self.stack = []  # open spans: [name, seconds spent in child spans]
        self.spans = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counts = {}

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def note_sizes(self, name: str, parent, result) -> None:
        if name in SIZE_OF:
            key, size = SIZE_OF[name]
            self.count(key, size(result))
        elif name == "poset.maximal_chains" and parent == "spherecount.decreasing_chains":
            # the filter route's candidates: every maximal chain of the poset
            self.count("spherecount.filter.chains", len(result))

    def wrap(self, name: str, fn):
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += took
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += took
                rec[2] += took - frame[1]
            self.note_sizes(name, parent, result)
            return result

        return span

    def install(self) -> None:
        """Wrap every boundary function in every loaded vpshell namespace."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "vpshell" or k.startswith("vpshell.")]
        for layer, names in BOUNDARIES.items():
            home = sys.modules.get(f"vpshell.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:  # gone from the package: reports 0 calls
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [[n, p, *rec]
                                 for (n, p), rec in self.spans.items()],
                       "counts": self.counts}, fh)


def main(argv) -> int:
    spanfile, cli_args = argv[0], argv[1:]
    import vpshell.cli  # loads every module of the package

    tracer = Tracer()
    tracer.install()
    try:
        return vpshell.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spanfile)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
