"""Command-line front end.

Subcommands read and write the JSON documents defined in docio.  Exit codes:
0 success, 1 validation or precondition failure (report on stderr), 2 usage
or format error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .docio import (
    DocumentFormatError,
    DocumentValidationError,
    _dumps,
    load_document,
    save_document,
)
from .exactlin import FieldSpec
from .interleave import (
    pack,
    square_interleave,
    unpack,
    untwist_square,
    upgrade_interleaving,
)
from .proset import induced_translation, shoelace
from .rep import Representation
from .zed import (
    Window,
    barcode,
    expand_decomposed,
    is_essential,
    match_or_witness,
    matching_to_rep,
    rep_to_matching,
)

DEFAULT_SEED = 42


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise DocumentFormatError(
                f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None


def _load(path: str, want: Optional[str] = None):
    kind, obj = load_document(_read(path))
    if want is not None and kind != want:
        raise DocumentFormatError(
            f"{path}: expected a {want} document, got {kind}")
    return kind, obj


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_window(spec: str) -> Window:
    lo, sep, hi = spec.partition(":")
    if not sep:
        raise DocumentFormatError(f"window must be LO:HI, got {spec!r}")
    try:
        return Window(int(lo), int(hi))
    except ValueError as e:
        raise DocumentFormatError(f"bad window {spec!r}: {e}") from None


def _cmd_validate(args) -> int:
    kind, _obj = _load(args.file)
    print(f"ok: {kind}")
    return 0


def _cmd_shoelace(args) -> int:
    _, p = _load(args.proset, "proset")
    _, t = _load(args.translation, "translation")
    if t.base != p:
        raise ValueError("translation is not over the given proset")
    sh = shoelace(p, t)
    _emit(save_document("proset", sh), args.out)
    return 0


def _cmd_induce(args) -> int:
    _, lam = _load(args.shoelace, "translation")
    _, gamma = _load(args.gamma, "translation")
    if gamma.base != lam.base:
        raise ValueError("the two translations live on different prosets")
    sh = shoelace(lam.base, lam)
    out = induced_translation(sh, gamma, twist=args.twist)
    _emit(save_document("translation", out), args.out)
    return 0


def _cmd_pack(args) -> int:
    _, x = _load(args.interleaving, "interleaving")
    _emit(save_document("representation", pack(x)), args.out)
    return 0


def _cmd_unpack(args) -> int:
    _, v = _load(args.rep, "representation")
    _, lam = _load(args.translation, "translation")
    sh = shoelace(lam.base, lam)
    if v.proset.up != sh.up:
        raise ValueError(
            "representation does not live on the shoelace carrier of the "
            "given translation")
    # the same relation, so v is functorial on sh as well
    rooted = Representation._trusted(sh, v.field, v.dims, v.edges)
    x = unpack(rooted)
    _emit(save_document("interleaving", x), args.out)
    return 0


def _cmd_square(args) -> int:
    _, a = _load(args.a, "interleaving")
    _, b = _load(args.b, "interleaving")
    sq = untwist_square(a, b) if args.untwist else square_interleave(a, b)
    _emit(save_document("interleaving", sq), args.out)
    return 0


def _cmd_upgrade(args) -> int:
    _, x = _load(args.interleaving, "interleaving")
    _, gamma = _load(args.gamma, "translation")
    out = upgrade_interleaving(x, gamma)
    _emit(save_document("interleaving", out), args.out)
    return 0


def _cmd_barcode(args) -> int:
    _, (w, m) = _load(args.module, "window_module")
    b = barcode(m, w, boundary=args.boundary)
    _emit(save_document("barcode", b), args.out)
    return 0


def _cmd_match_check(args) -> int:
    _, s = _load(args.matching, "matching")
    if args.essential:
        bad = is_essential(s)
        if bad:
            for (a, b) in bad:
                print(f"pair ({a}, {b}) violates the overlap condition",
                      file=sys.stderr)
            return 1
    print("ok")
    return 0


def _cmd_match_to_rep(args) -> int:
    try:
        field = FieldSpec(args.prime)
    except ValueError as e:
        raise DocumentFormatError(f"--prime: {e}") from None
    _, s = _load(args.matching, "matching")
    w = _parse_window(args.window)
    variant = {"F": "essential_F", "Fprime": "nonessential_Fprime"}[args.variant]
    l = matching_to_rep(s, w, variant, field)
    _emit(save_document("decomposed_rep", l), args.out)
    return 0


def _cmd_rep_to_match(args) -> int:
    _, l = _load(args.decomposed, "decomposed_rep")
    _emit(save_document("matching", rep_to_matching(l)), args.out)
    return 0


def _cmd_expand(args) -> int:
    _, l = _load(args.decomposed, "decomposed_rep")
    _emit(save_document("representation", expand_decomposed(l)), args.out)
    return 0


def _cmd_find_matching(args) -> int:
    if args.epsilon < 0:
        raise DocumentFormatError(f"--epsilon must be at least 0, got {args.epsilon}")
    _, left = _load(args.left, "barcode")
    _, right = _load(args.right, "barcode")
    s, witness = match_or_witness(left, right, args.epsilon,
                                  require_essential=args.essential)
    if s is None:
        print(f"no {'essential ' if args.essential else ''}matching at "
              f"epsilon {args.epsilon}", file=sys.stderr)
        print(f"witness: {witness}", file=sys.stderr)
        return 1
    _emit(save_document("matching", s), args.out)
    return 0


def _cmd_render(args) -> int:
    from .render import hasse_dot, support_dot
    kind, obj = _load(args.file)
    if kind == "proset":
        text = hasse_dot(obj)
    elif kind == "decomposed_rep":
        text = support_dot(obj)
    else:
        raise DocumentFormatError(
            f"cannot render a {kind} document; expected proset or "
            f"decomposed_rep")
    _emit(text, args.out)
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest as selftest_mod
    if args.cases is not None and args.cases < 1:
        raise DocumentFormatError(f"--cases must be at least 1, got {args.cases}")
    seed = args.seed
    if seed is None:
        env = os.environ.get("SHOELACE_SEED")
        try:
            seed = int(env) if env else DEFAULT_SEED
        except ValueError:
            raise DocumentFormatError(
                f"SHOELACE_SEED must be an integer, got {env!r}") from None
    results = selftest_mod.run_suites(seed, cases=args.cases, only=args.suite)
    rep = selftest_mod.report(results, seed)
    _emit(_dumps(rep) + "\n", args.out)
    for r in results:
        if not r.passed:
            print(f"suite {r.name} failed: {r.first_counterexample}",
                  file=sys.stderr)
    return 0 if rep["ok"] else 1


def _suite_name(name: str) -> str:
    from .selftest import SUITE_NAMES
    if name in SUITE_NAMES:
        return name
    raise argparse.ArgumentTypeError(
        f"invalid choice: {name!r} (choose from {', '.join(map(repr, SUITE_NAMES))})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shoelace",
        description="Persistence over preordered sets: shoelace carriers, "
                    "interleavings, barcodes, and matchings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("validate", _cmd_validate, "validate a document")
    p.add_argument("file")

    p = add("shoelace", _cmd_shoelace, "build the doubled carrier")
    p.add_argument("--proset", required=True)
    p.add_argument("--translation", required=True)
    p.add_argument("--out")

    p = add("induce", _cmd_induce, "lift a translation to the carrier")
    p.add_argument("--shoelace", required=True,
                   help="translation document defining the carrier")
    p.add_argument("--gamma", required=True)
    p.add_argument("--twist", action="store_true")
    p.add_argument("--out")

    p = add("pack", _cmd_pack, "interleaving to carrier representation")
    p.add_argument("--interleaving", required=True)
    p.add_argument("--out")

    p = add("unpack", _cmd_unpack, "carrier representation to interleaving")
    p.add_argument("--rep", required=True)
    p.add_argument("--translation", required=True)
    p.add_argument("--out")

    p = add("square", _cmd_square, "interleave two interleavings")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--untwist", action="store_true")
    p.add_argument("--out")

    p = add("upgrade", _cmd_upgrade, "relax an interleaving to a larger "
                                     "translation")
    p.add_argument("--interleaving", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--out")

    p = add("barcode", _cmd_barcode, "barcode of a window module")
    p.add_argument("--module", required=True)
    p.add_argument("--boundary", choices=("finite", "infinite"),
                   default="finite")
    p.add_argument("--out")

    p = add("match-check", _cmd_match_check, "validate a matching")
    p.add_argument("--matching", required=True)
    p.add_argument("--essential", action="store_true")

    p = add("match-to-rep", _cmd_match_to_rep,
            "decomposition certificate from a matching")
    p.add_argument("--matching", required=True)
    p.add_argument("--window", required=True, metavar="LO:HI")
    p.add_argument("--variant", choices=("F", "Fprime"), default="F")
    p.add_argument("--prime", type=int, default=2)
    p.add_argument("--out")

    p = add("rep-to-match", _cmd_rep_to_match,
            "matching read off a decomposition certificate")
    p.add_argument("--decomposed", required=True)
    p.add_argument("--out")

    p = add("expand", _cmd_expand,
            "decomposition certificate as a carrier representation")
    p.add_argument("--decomposed", required=True)
    p.add_argument("--out")

    p = add("find-matching", _cmd_find_matching,
            "search for a matching between two barcodes")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--epsilon", type=int, required=True)
    p.add_argument("--essential", action="store_true")
    p.add_argument("--out")

    p = add("render", _cmd_render, "DOT diagram of a document")
    p.add_argument("--file", required=True)
    p.add_argument("--format", choices=("dot",), default="dot")
    p.add_argument("--out")

    p = add("selftest", _cmd_selftest, "run the seeded property suites")
    p.add_argument("--seed", type=int, default=None,
                   help="default: SHOELACE_SEED or 42")
    p.add_argument("--cases", type=int, default=None,
                   help="cap per-suite case counts")
    p.add_argument("--suite", type=_suite_name, help="default: every suite")
    p.add_argument("--out")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DocumentFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DocumentValidationError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
