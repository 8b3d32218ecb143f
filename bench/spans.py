"""In-memory span and counter tracing for the benchmark's traced runs.

The tracer wraps public functions and constructors of the ``shoelace``
package from the outside.  Every wrapped function is also rebound in each
``shoelace`` module that imported it with ``from ... import``, because
patching only the defining module would miss those calls.  Spans are
aggregated per (name, parent) as they close, so memory stays flat however
many calls a run makes.  A span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import sys
import time

# (span name, module, attribute).  An attribute naming a class wraps its
# constructor.  The name of the cli.main span is completed at call time with
# the subcommand.
SPANS = (
    ("exactlin.Matrix", "shoelace.exactlin", "Matrix"),
    ("exactlin.mat_mul", "shoelace.exactlin", "mat_mul"),
    ("exactlin.mat_rank", "shoelace.exactlin", "mat_rank"),
    ("exactlin.mat_inverse", "shoelace.exactlin", "mat_inverse"),
    ("exactlin.mat_solve_homogeneous", "shoelace.exactlin", "mat_solve_homogeneous"),
    ("proset.shoelace", "shoelace.proset", "shoelace"),
    ("rep.Representation", "shoelace.rep", "Representation"),
    ("rep.NatTrans", "shoelace.rep", "NatTrans"),
    ("rep.validate_representation", "shoelace.rep", "validate_representation"),
    ("rep.validate_nat_trans", "shoelace.rep", "validate_nat_trans"),
    ("rep.precompose", "shoelace.rep", "precompose"),
    ("rep.direct_sum", "shoelace.rep", "direct_sum"),
    ("rep.restrict", "shoelace.rep", "restrict"),
    ("rep.subrelation_transfer", "shoelace.rep", "subrelation_transfer"),
    ("rep.chain_representation", "shoelace.rep", "chain_representation"),
    ("interleave.Interleaving", "shoelace.interleave", "Interleaving"),
    ("interleave.pack", "shoelace.interleave", "pack"),
    ("interleave.unpack", "shoelace.interleave", "unpack"),
    ("interleave.validate_interleaving", "shoelace.interleave", "validate_interleaving"),
    ("zed.barcode", "shoelace.zed", "barcode"),
    ("zed.hom_dimension", "shoelace.zed", "hom_dimension"),
    ("zed.canonical_pair", "shoelace.zed", "canonical_pair"),
    ("zed.find_matching", "shoelace.zed", "find_matching"),
    ("zed.matching_to_rep", "shoelace.zed", "matching_to_rep"),
    ("zed.validate_decomposed", "shoelace.zed", "validate_decomposed"),
    ("zed.expand_decomposed", "shoelace.zed", "expand_decomposed"),
    ("zed.rep_to_matching", "shoelace.zed", "rep_to_matching"),
    ("zed.matching_interleaving", "shoelace.zed", "matching_interleaving"),
    ("docio.load_document", "shoelace.docio", "load_document"),
    ("docio.save_document", "shoelace.docio", "save_document"),
    ("render.support_dot", "shoelace.render", "support_dot"),
    ("cli.main", "shoelace.cli", "main"),
)

# Counters reported as they are; the hit and found ratios are derived.
COUNTS = (
    "exactlin.mat_mul.mults",
    "exactlin.mat_rank.entries",
    "exactlin.mat_solve_homogeneous.unknowns",
    "exactlin.mat_solve_homogeneous.equations",
    "exactlin.FieldSpec_eq.calls",
    "zed.endpoint_distance.calls",
    "docio.bytes_in",
    "docio.bytes_out",
)

# lru_cached functions whose hit ratio is reported, read from cache_info().
CACHES = (
    ("zed.shoelace_window.hit_ratio", "shoelace.zed", "shoelace_window"),
    ("zed.interval_to_module.hit_ratio", "shoelace.zed", "interval_to_module"),
)


def _cli_span_name(args, _kwargs) -> str:
    return "cli.main." + args[0][0]


class Tracer:
    """Wraps the package on install() and undoes it on uninstall()."""

    def __init__(self):
        self.agg: dict[tuple[str, str | None], list] = {}
        # running self time per span name, cheap to read between ops
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.top_s = 0.0
        self._stack: list[list] = []
        self._undo: list[tuple] = []
        self._cache_fns: list[tuple[str, object]] = []

    # wrapping

    def _span(self, name, fn, after=None):
        stack = self._stack
        agg = self.agg
        self_s = self.self_s
        clock = time.perf_counter
        dynamic = callable(name)

        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if dynamic else name
            frame = [span, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                own = dt - frame[1]
                rec = agg.get((span, parent))
                if rec is None:
                    rec = agg[(span, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += own
                self_s[span] = self_s.get(span, 0.0) + own
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_s += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, new):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def _rebind(self, orig, new) -> None:
        """Point every shoelace module global that is orig at new."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "shoelace" or modname.startswith("shoelace.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, new)

    def _add(self, key, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def install(self) -> None:
        from shoelace import exactlin

        after = {
            "exactlin.mat_mul": lambda a, r: self._add(
                "exactlin.mat_mul.mults", a[0].rows * a[0].cols * a[1].cols),
            "exactlin.mat_rank": lambda a, r: self._add(
                "exactlin.mat_rank.entries", a[0].rows * a[0].cols),
            "exactlin.mat_solve_homogeneous": lambda a, r: self._add_system(*a),
            "zed.find_matching": lambda a, r: self._add(
                "zed.find_matching.found", r is not None),
            "docio.load_document": lambda a, r: self._add(
                "docio.bytes_in", len(a[0].encode("utf-8"))),
            "docio.save_document": lambda a, r: self._add(
                "docio.bytes_out", len(r.encode("utf-8"))),
        }
        for name, modname, attr in SPANS:
            mod = sys.modules[modname]
            orig = getattr(mod, attr)
            if isinstance(orig, type):
                self._set(orig, "__init__",
                          self._span(name, orig.__dict__["__init__"]))
                continue
            span = _cli_span_name if name == "cli.main" else name
            self._rebind(orig, self._span(span, orig, after.get(name)))

        self._set(exactlin.FieldSpec, "__eq__",
                  self._count("exactlin.FieldSpec_eq.calls",
                              exactlin.FieldSpec.__dict__["__eq__"]))
        zed = sys.modules["shoelace.zed"]
        self._rebind(zed.endpoint_distance,
                     self._count("zed.endpoint_distance.calls", zed.endpoint_distance))
        self._cache_fns = [(key, getattr(sys.modules[m], a)) for key, m, a in CACHES]

    def _add_system(self, _field, shapes, constraints) -> None:
        self._add("exactlin.mat_solve_homogeneous.unknowns",
                  sum(r * c for r, c in shapes))
        self._add("exactlin.mat_solve_homogeneous.equations",
                  sum(a.rows * shapes[k][1] for a, k, _b, _l in constraints))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # results

    def cache_ratios(self) -> dict[str, float]:
        out = {}
        for key, fn in self._cache_fns:
            info = fn.cache_info()
            total = info.hits + info.misses
            out[key] = info.hits / total if total else 0.0
        return out

    def totals(self) -> dict[str, list]:
        """Per span name: [calls, total_s, self_s], summed over parents."""
        out: dict[str, list] = {}
        for (name, _parent), (calls, total, own) in self.agg.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        return out

    def by_parent(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "calls": calls,
             "total_s": total, "self_s": own}
            for (name, parent), (calls, total, own) in sorted(
                self.agg.items(), key=lambda kv: -kv[1][1])
        ]
