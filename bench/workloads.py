"""The benchmark's four workloads: input generation and one checked op each.

Every input is generated from the workload seed before timing starts.
Generation uses plain integers and lists, never the package's own
arithmetic, and only turns the result into documents or package objects
(intervals, barcodes) at the end.  Sizes follow fixed schedules, so that a
run, which times whole rounds over the inputs, sees the same mix of sizes
whatever the seed; the seed moves the contents.

An op returns (errors, output).  errors lists failed checks against the
planted truth; output is the bytes the op produced, fed to the run's digest.
The package is reached through module attributes at call time, so that a
traced run sees every call.
"""

from __future__ import annotations

import json
import math
import os
import random

INF = math.inf
FIELDS = (2, 5, 2**31 - 1)
_PHI = (math.sqrt(5) - 1) / 2
_ROOT2 = math.sqrt(2) - 1


def _spread(k: int, lo: int, hi: int) -> int:
    """k-th term of a low-discrepancy sequence over lo..hi."""
    return lo + int(((k + 1) * _PHI) % 1.0 * (hi - lo + 1))


def _ext(v):
    if v == -INF:
        return "-inf"
    if v == INF:
        return "+inf"
    return v


def _is_short(bar, eps: int) -> bool:
    return bar[1] - bar[0] < 2 * eps


def _star(i, j, eps: int) -> tuple[bool, bool]:
    """The two disjuncts of the overlap condition, on plain endpoints."""
    x, y = i
    s, t = j
    return (s - eps <= x <= t - eps <= y, x - eps <= s <= y - eps <= t)


def _within(i, j, eps: int) -> bool:
    def dist(a, b):
        if math.isinf(a) or math.isinf(b):
            return 0 if a == b else INF
        return abs(a - b)
    return dist(i[0], j[0]) <= eps and dist(i[1], j[1]) <= eps


def _rand_bar(rng: random.Random, lo: int, hi: int, r: float | None = None):
    """A bar with ends in lo..hi; r in [0, 1) picks its shape, finite three
    times in four."""
    r = rng.random() if r is None else r
    a, b = sorted((rng.randint(lo, hi), rng.randint(lo, hi)))
    if r < 0.75:
        return (a, b)
    if r < 0.85:
        return (a, INF)
    if r < 0.95:
        return (-INF, b)
    return (-INF, INF)


def _jitter(rng: random.Random, bar, eps: int, ends=(-INF, INF)):
    """A partner within eps of bar, with finite ends kept in ends, that may
    be matched to it essentially."""
    def move(e):
        return e if math.isinf(e) else min(max(e + rng.randint(-eps, eps), ends[0]), ends[1])

    for _ in range(50):
        lo, hi = move(bar[0]), move(bar[1])
        if lo > hi:
            continue
        cand = (lo, hi)
        if _is_short(bar, eps) and _is_short(cand, eps) and not any(_star(bar, cand, eps)):
            continue
        return cand
    return None


def _window_module_doc(rng: random.Random, p: int, lo: int, n: int, bars) -> str:
    """Canonical window_module text for the direct sum of the bars, with the
    basis of every point scrambled by a random invertible matrix."""
    alive = [[k for k, (a, b) in enumerate(bars) if a <= lo + i <= b] for i in range(n)]
    dims = [len(a) for a in alive]
    scramble = [_rand_invertible(rng, p, d) for d in dims]
    steps = []
    for i in range(n - 1):
        u_next, _ = scramble[i + 1]
        _, u_inv = scramble[i]
        row_of = {k: r for r, k in enumerate(alive[i + 1])}
        # U_{i+1} S_i keeps the columns of U_{i+1} for bars that continue
        us = [[u_next[r][row_of[k]] if k in row_of else 0 for k in alive[i]]
              for r in range(dims[i + 1])]
        steps.append([[sum(x * y for x, y in zip(row, col)) % p
                       for col in zip(*u_inv)] if dims[i] else []
                      for row in us])
    doc = {"kind": "window_module", "version": "1",
           "payload": {"prime": p, "window": {"lo": lo, "hi": lo + n - 1},
                       "dims": dims, "steps": steps}}
    return json.dumps(doc, indent=2) + "\n"


def _rand_invertible(rng: random.Random, p: int, d: int):
    """(U, U^-1) built from random row operations, so both come cheaply."""
    ops = []
    for _ in range(3 * d if d > 1 else 0):
        a, b = rng.sample(range(d), 2)
        ops.append(("add", a, b, rng.randrange(1, p)))
    for r in range(d):
        if p > 2:
            ops.append(("scale", r, r, rng.randrange(1, p)))
    perm = list(range(d))
    rng.shuffle(perm)

    def apply(m, op, inverse):
        kind, a, b, c = op
        if kind == "add":
            c = p - c if inverse else c
            m[b] = [(x + c * y) % p for x, y in zip(m[b], m[a])]
        else:
            c = pow(c, p - 2, p) if inverse else c
            m[b] = [(x * c) % p for x in m[b]]

    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for op in ops:
        apply(u, op, False)
    u = [u[perm[i]] for i in range(d)]
    inv = [[int(i == j) for j in range(d)] for i in range(d)]
    inv = [inv[k] for k in sorted(range(d), key=lambda i: perm[i])]
    # U = P E_m ... E_1, so U^-1 = E_1^-1 ... E_m^-1 P^-1
    for op in reversed(ops):
        apply(inv, op, True)
    return u, inv


# modules


def _window_bars(rng: random.Random, lo: int, n: int, count: int) -> list:
    """count bars on the window lo..lo+n-1.  Their lengths spread evenly over
    n/6 to n/2, and their starts follow a golden-ratio sequence from a random
    offset, so that the dimensions, and with them an op's cost, vary little
    with the seed."""
    offset = rng.random()
    bars = []
    for k in range(count):
        length = _spread(k, n // 6, n // 2)
        a = lo + int((offset + k * _PHI) % 1.0 * (n - length))
        bars.append((a, a + length))
    return sorted(bars)


def gen_modules(rng: random.Random, count: int, sh) -> list:
    items = []
    for k in range(count):
        n = _spread(k, 10, 24)
        p = FIELDS[k % 3]
        lo = rng.randint(-20, 20)
        bars = _window_bars(rng, lo, n, n + n * ((k // 3) % 3) // 4)
        items.append((_window_module_doc(rng, p, lo, n, bars), bars))
    return items


def op_modules(sh, item):
    text, bars = item
    kind, (w, m) = sh.docio.load_document(text)
    b = sh.zed.barcode(m, w)
    got = [(iv.lo.value, iv.hi.value) for iv in b]
    out = sh.docio.save_document(kind, (w, m))
    errors = []
    if got != bars:
        errors.append("barcode differs from the planted bars")
    if out != text:
        errors.append("saved document differs from the input")
    return errors, (out + ";".join(f"{a},{c}" for a, c in got)).encode()


# intervals


def gen_intervals(rng: random.Random, count: int, sh) -> list:
    """Interval pairs with endpoints in [lo + eps + 1, hi - 1], where the
    closed-form hom dimension holds on the window.  In the first of every
    three blocks of eight ops the second interval is a jittered copy of the
    first, within eps, so that the pair interleaves.  Those ops cost several
    times the others, and with a third of them the median op falls among the
    others rather than at the step between the two kinds."""
    fields = {p: sh.exactlin.FieldSpec(p) for p in FIELDS}
    items = []
    for k in range(count):
        n = _spread(k, 9, 25)
        eps = k % 4
        p = FIELDS[(k // 4) % 3]
        lo = rng.randint(-6, 6)
        hi = lo + n - 1
        ends = (lo + eps + 1, hi - 1)
        shape = (k + 1) * _ROOT2 % 1.0
        j = None
        while j is None:
            i = _rand_bar(rng, *ends, shape)
            j = _jitter(rng, i, eps, ends) if (k // 8) % 3 == 0 else _rand_bar(rng, *ends)
        d1, d2 = _star(i, j, eps)
        w = sh.zed.Window(lo, hi)
        iv = sh.zed.Interval(_ext(i[0]), _ext(i[1]))
        jv = sh.zed.Interval(_ext(j[0]), _ext(j[1]))
        items.append((iv, jv, iv.shifted(eps), jv.shifted(eps), eps, w,
                      fields[p], d1, d2, _within(i, j, eps)))
    return items


def op_intervals(sh, item):
    iv, jv, ish, jsh, eps, w, field, d1, d2, within = item
    zed = sh.zed
    errors = []
    h1 = zed.hom_dimension(iv, jsh, w, field)
    h2 = zed.hom_dimension(jv, ish, w, field)
    if (h1, h2) != (int(d1), int(d2)):
        errors.append(f"hom dimensions {h1}, {h2} differ from the closed form")
    f, g = zed.canonical_pair(iv, jv, eps, w, field)
    for t in (f, g):
        if sh.rep.validate_nat_trans(t) is not None:
            errors.append("canonical pair is not natural")
    fz = all(c.is_zero() for c in f.components)
    gz = all(c.is_zero() for c in g.components)
    if (not fz, not gz) != (d1, d2):
        errors.append("canonical pair nonzero off the overlap disjuncts")
    packed = ""
    if within:
        x = sh.interleave.Interleaving(
            zed.interval_to_module(iv, w, field), zed.interval_to_module(jv, w, field),
            zed.lambda_eps(w, eps), f, g)
        if sh.interleave.validate_interleaving(x) is not None:
            errors.append("matched pair is not an interleaving")
        v = sh.interleave.pack(x)
        if sh.interleave.unpack(v) != x:
            errors.append("unpack(pack(x)) != x")
        packed = f",{sum(v.dims)}"
    return errors, f"{h1},{h2},{int(fz)},{int(gz)}{packed};".encode()


# matchings


def _planted_pair(rng: random.Random, bars: int, eps: int):
    """Barcodes with a planted essential eps-matching and finite ends in
    0..6, and the window that pads those ends by 2 eps.  Bar shapes follow a
    low-discrepancy sequence from a random offset, and four draws in five
    plant a matched pair, so that the number of infinite bars, and with it an
    op's cost, varies little with the seed."""
    left, right = [], []
    k = rng.randrange(1000)
    while len(left) < bars or len(right) < bars:
        k += 1
        bar = _rand_bar(rng, 0, 6, k * _ROOT2 % 1.0)
        if k % 5:
            partner = _jitter(rng, bar, eps, (0, 6))
            if partner is not None and len(left) < bars and len(right) < bars:
                left.append(bar)
                right.append(partner)
                continue
        if _is_short(bar, eps):
            side = left if len(left) < bars else right
            side.append(bar)
    return left, right, (-2 * eps, 6 + 2 * eps)


def _to_barcode(sh, bars):
    return sh.zed.Barcode(sh.zed.Interval(_ext(a), _ext(b)) for a, b in bars)


def gen_matchings(rng: random.Random, count: int, sh) -> list:
    """Nine in ten ops are planted-feasible pairs of 3-8 bars per side; every
    tenth is the infeasible family at eps 3: k short bars [i, i+2] against
    the same bars shifted by 2, plus one long bar nothing can match."""
    items = []
    feasible = 0
    for k in range(count):
        if k % 10 == 9:
            kk = 5 + (k // 10) % 3
            o = rng.randint(-10, 10)
            left = [(o + i, o + i + 2) for i in range(kk)]
            right = [(o + i + 2, o + i + 4) for i in range(kk)]
            far = o + kk + 10 + rng.randint(0, 10)
            right.append((far, far + rng.randint(10, 30)))
            items.append((_to_barcode(sh, left), _to_barcode(sh, right), 3,
                          None, None, None))
            continue
        bars = 3 + feasible % 6
        eps = 1 + (feasible // 6) % 3
        p = FIELDS[(feasible // 18) % 3]
        feasible += 1
        left, right, (lo, hi) = _planted_pair(rng, bars, eps)
        covered = sum(min(b, hi) - max(a, lo) + 1 for a, b in left + right)
        items.append((_to_barcode(sh, left), _to_barcode(sh, right), eps,
                      sh.zed.Window(lo, hi), sh.exactlin.FieldSpec(p), covered))
    return items


def op_matchings(sh, item):
    left, right, eps, w, field, covered = item
    zed, docio = sh.zed, sh.docio
    s = zed.find_matching(left, right, eps, require_essential=True)
    if w is None:
        return ([] if s is None else ["found a matching on the infeasible family"],
                b"none;")
    if s is None:
        return ["no matching found on a planted-feasible pair"], b"missing;"
    errors = []
    if zed.validate_matching(s) is not None or zed.is_essential(s):
        errors.append("found matching is not a valid essential matching")
    text = docio.save_document("decomposed_rep", zed.matching_to_rep(s, w, "essential_F", field))
    kind, l = docio.load_document(text)
    v = zed.expand_decomposed(l)
    if sum(v.dims) != covered:
        errors.append("expanded representation has the wrong total dimension")
    if zed.rep_to_matching(l) != s:
        errors.append("rep_to_matching does not give back the found matching")
    if sh.interleave.validate_interleaving(zed.matching_interleaving(s, w, field)) is not None:
        errors.append("matching interleaving does not validate")
    return errors, f"{text}{sum(v.dims)};".encode()


# cli


CLI_STEPS = ("find-matching", "match-to-rep", "expand", "rep-to-match",
             "barcode", "render")


def gen_cli(rng: random.Random, count: int, sh) -> list:
    """README pipelines: a matching pair, its window, and a small module."""
    items = []
    for k in range(count):
        eps = 1 + k % 3
        left, right, window = _planted_pair(rng, 3 + k % 3, eps)
        n = _spread(k, 8, 10)
        lo = rng.randint(-5, 5)
        bars = _window_bars(rng, lo, n, n)
        p = FIELDS[k % 3]
        items.append({
            "left": _barcode_doc(left), "right": _barcode_doc(right),
            "eps": eps, "window": window, "prime": p,
            "module": _window_module_doc(rng, p, lo, n, bars),
            "bars": ";".join(f"{a},{b}" for a, b in bars),
        })
    return items


def _barcode_doc(bars) -> str:
    counts = {}
    for bar in bars:
        counts[bar] = counts.get(bar, 0) + 1
    items = [{"lo": _ext(a), "hi": _ext(b), "count": c}
             for (a, b), c in sorted(counts.items(), key=lambda kv: _sort_key(kv[0]))]
    doc = {"kind": "barcode", "version": "1", "payload": {"intervals": items}}
    return json.dumps(doc, indent=2) + "\n"


def _sort_key(bar):
    def key(e):
        return (-1, 0) if e == -INF else (1, 0) if e == INF else (0, e)
    return key(bar[0]) + key(bar[1])


def cli_argv(step: str, item: dict, d: str) -> list[str]:
    """The subcommand line for one pipeline step, reading and writing in d."""
    j = os.path.join
    lo, hi = item["window"]
    return {
        "find-matching": ["find-matching", "--left", j(d, "a.json"), "--right", j(d, "b.json"),
                          "--epsilon", str(item["eps"]), "--essential", "--out", j(d, "s.json")],
        "match-to-rep": ["match-to-rep", "--matching", j(d, "s.json"), f"--window={lo}:{hi}",
                         "--prime", str(item["prime"]), "--out", j(d, "l.json")],
        "expand": ["expand", "--decomposed", j(d, "l.json"), "--out", j(d, "v.json")],
        "rep-to-match": ["rep-to-match", "--decomposed", j(d, "l.json"), "--out", j(d, "s2.json")],
        "barcode": ["barcode", "--module", j(d, "m.json"), "--out", j(d, "bc.json")],
        "render": ["render", "--file", j(d, "l.json"), "--format", "dot", "--out", j(d, "g.dot")],
    }[step]


OUTPUT = {"find-matching": "s.json", "match-to-rep": "l.json", "expand": "v.json",
          "rep-to-match": "s2.json", "barcode": "bc.json", "render": "g.dot"}


def write_inputs(item: dict, d: str) -> None:
    for name, key in (("a.json", "left"), ("b.json", "right"), ("m.json", "module")):
        with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
            fh.write(item[key])
    for name in OUTPUT.values():
        path = os.path.join(d, name)
        if os.path.exists(path):
            os.remove(path)


def check_cli_step(step: str, code: int, item: dict, d: str):
    errors = [] if code == 0 else [f"{step} exited with {code}"]
    try:
        with open(os.path.join(d, OUTPUT[step]), "rb") as fh:
            out = fh.read()
    except OSError:
        return errors + [f"{step} wrote no output"], b"missing;"
    if step == "rep-to-match":
        with open(os.path.join(d, "s.json"), "rb") as fh:
            if fh.read() != out:
                errors.append("rep-to-match does not reproduce the matching")
    elif step == "barcode":
        got = json.loads(out)["payload"]["intervals"]
        bars = ";".join(f"{b['lo']},{b['hi']}" for b in got for _ in range(b["count"]))
        if bars != item["bars"]:
            errors.append("barcode differs from the planted bars")
    elif step == "render" and not out.startswith(b"digraph support {"):
        errors.append("render did not emit a support diagram")
    return errors, out
