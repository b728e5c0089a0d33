"""Command line front end for the toolkit.

One subcommand per invocation. Exit codes follow a single discipline:
0 for an affirmative outcome (parsed, true, SAT, certified, decidable),
1 for a negative one (false, UNSAT, UNKNOWN, not certified, Undecidable),
2 for usage or input errors and for a SAT certificate that fails its
independent re-check. The primary result goes to standard output,
diagnostics to standard error, and identical invocations produce
byte-identical standard output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .atlas import (
    UNDECIDABLE, ORDER_CLASSES,
    classify, enumerate_fragments, hasse_dot,
)
from .automata import AutomatonFormatError, load_automaton
from .bisim import certify_undefinability, largest_f_bisimulation, \
    later_witness, meets_witness
from .checking import NotStabilized, mc_finite, mc_periodic
from .encoding import EncodingError, encode_ae_groups, encode_fragment
from .models import FiniteDomain, ModelFormatError, load_model, save_model
from .parser import ParseError, parse_formula, parse_fragment
from .sat import (
    CertificateError, Sat, Unsat, UnsupportedFragmentError,
    check_certificate, sat_bbll, sat_bounded_finite,
)
from .syntax import MODALITIES_BY_NAME, mirror_formula, mirror_fragment, render


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_parse(args: argparse.Namespace) -> int:
    print(render(parse_formula(args.formula)))
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    model = load_model(_read(args.model))
    phi = parse_formula(args.formula)
    x, y = args.interval
    if isinstance(model.domain, FiniteDomain):
        value = mc_finite(model, (x, y), phi)
    else:
        try:
            value = mc_periodic(model, (x, y), phi, max_rounds=args.rounds)
        except NotStabilized as exc:
            print("unknown")
            print("not stabilized: %s" % exc, file=sys.stderr)
            return 1
    print("true" if value else "false")
    return 0 if value else 1


def _cmd_sat(args: argparse.Namespace) -> int:
    if args.formula is not None and args.file is not None:
        print("error: give the formula either inline or via --file, not both",
              file=sys.stderr)
        return 2
    if args.formula is None and args.file is None:
        print("error: no formula given", file=sys.stderr)
        return 2
    text = args.formula if args.formula is not None else _read(args.file)
    phi = parse_formula(text)
    if args.finite is not None:
        res = sat_bounded_finite(phi, args.finite)
    else:
        res = sat_bbll(phi, max_bound=args.max_bound)
    if isinstance(res, Unsat):
        print("UNSAT")
        return 1
    if not isinstance(res, Sat):
        print("UNKNOWN")
        print(res.reason, file=sys.stderr)
        return 1
    if args.verify and not check_certificate(phi, res.model, res.witness):
        print("error: certificate failed re-verification", file=sys.stderr)
        return 2
    cert = save_model(res.model)
    print("SAT")
    print("witness %d %d" % res.witness)
    _emit(cert)
    out = args.out
    if out is None and args.file is not None:
        out = args.file + ".cert.ism"
    if out is not None:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(cert)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    label = classify(parse_fragment(args.fragment), args.order_class)
    print(label)
    return 0 if label != UNDECIDABLE else 1


def _cmd_atlas(args: argparse.Namespace) -> int:
    if args.format == "dot":
        sys.stdout.write(hasse_dot(args.order_class))
        return 0
    for frag in enumerate_fragments():
        print(json.dumps({"fragment": frag.name,
                          "label": classify(frag, args.order_class)}))
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    auto = load_automaton(_read(args.ica))
    if args.groups:
        groups = encode_ae_groups(auto)
        if args.target == "iAB":
            groups = [(name, mirror_formula(f)) for name, f in groups]
        for name, f in groups:
            print("## %s" % name)
            print(render(f))
        return 0
    print(render(encode_fragment(auto, args.target)))
    return 0


def _cmd_bisim(args: argparse.Namespace) -> int:
    if args.witness is not None:
        if args.left or args.right or args.fragment or args.certify:
            print("error: --witness takes no other arguments",
                  file=sys.stderr)
            return 2
        w = later_witness() if args.witness == "later" else meets_witness()
        ok = w.certify()
        print("certified" if ok else "not certified")
        return 0 if ok else 1
    if not (args.left and args.right and args.fragment):
        print("error: --left, --right and --fragment are required",
              file=sys.stderr)
        return 2
    ma = load_model(_read(args.left))
    mb = load_model(_read(args.right))
    frag = parse_fragment(args.fragment)
    if args.certify is not None:
        mod_name, letter, x, y, x2, y2 = args.certify
        if mod_name not in MODALITIES_BY_NAME:
            print("error: unknown modality %r" % mod_name, file=sys.stderr)
            return 2
        ok = certify_undefinability(
            MODALITIES_BY_NAME[mod_name], frag, ma, mb,
            (int(x), int(y)), (int(x2), int(y2)), letter)
        print("certified" if ok else "not certified")
        return 0 if ok else 1
    rel = largest_f_bisimulation(frag, ma, mb)
    for (ia, ib) in sorted(rel):
        print("%d %d %d %d" % (ia[0], ia[1], ib[0], ib[1]))
    return 0 if rel else 1


def _cmd_mirror(args: argparse.Namespace) -> int:
    if args.fragment:
        print(mirror_fragment(parse_fragment(args.text)).name)
        return 0
    try:
        phi = parse_formula(args.text)
    except ParseError:
        print(mirror_fragment(parse_fragment(args.text)).name)
        return 0
    print(render(mirror_formula(phi)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hs",
        description="Reasoning tools for interval temporal logic over "
                    "discrete orders.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="echo a formula in canonical form")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("mc", help="evaluate a formula on a model")
    p.add_argument("--model", required=True, help=".ism model file")
    p.add_argument("--interval", nargs=2, type=int, required=True,
                   metavar=("X", "Y"))
    p.add_argument("--formula", required=True)
    p.add_argument("--rounds", type=int, default=None,
                   help="stabilization round cap for periodic models")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("sat", help="decide satisfiability")
    p.add_argument("formula", nargs="?", default=None)
    p.add_argument("--file", help="read the formula from a file")
    p.add_argument("--finite", type=int, default=None, metavar="N",
                   help="bounded search over finite orders with at most "
                        "N points past the origin")
    p.add_argument("--max-bound", type=int, default=None,
                   help="truncate the periodic search at this bound")
    p.add_argument("--verify", action="store_true",
                   help="re-check the certificate before printing")
    p.add_argument("--out", help="certificate path (default FILE.cert.ism)")
    p.set_defaults(func=_cmd_sat)

    p = sub.add_parser("classify", help="decidability class of a fragment")
    p.add_argument("fragment")
    p.add_argument("--class", dest="order_class", default="sd",
                   choices=ORDER_CLASSES)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("atlas", help="enumerate and label all fragments")
    p.add_argument("--class", dest="order_class", default="sd",
                   choices=ORDER_CLASSES)
    p.add_argument("--format", default="jsonl", choices=("jsonl", "dot"))
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("encode", help="compile a counter automaton run "
                                      "description into a formula")
    p.add_argument("--ica", required=True, help=".ica automaton file")
    p.add_argument("--target", required=True, choices=("AE", "iAB"))
    p.add_argument("--groups", action="store_true",
                   help="print each conjunct group separately")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("bisim", help="bisimulations and undefinability "
                                     "certificates")
    p.add_argument("--left", help=".ism model file")
    p.add_argument("--right", help=".ism model file")
    p.add_argument("--fragment")
    p.add_argument("--certify", nargs=6, default=None,
                   metavar=("MOD", "LETTER", "X", "Y", "X2", "Y2"),
                   help="check an undefinability witness")
    p.add_argument("--witness", choices=("later", "meets"), default=None,
                   help="run a shipped witness")
    p.set_defaults(func=_cmd_bisim)

    p = sub.add_parser("mirror", help="mirror a formula or fragment")
    p.add_argument("text")
    p.add_argument("--fragment", action="store_true",
                   help="treat the argument as a fragment")
    p.set_defaults(func=_cmd_mirror)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ParseError, ModelFormatError, AutomatonFormatError,
            EncodingError, UnsupportedFragmentError, CertificateError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except NotStabilized as exc:
        print("error: evaluation did not stabilize: %s" % exc,
              file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
