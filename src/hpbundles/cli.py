"""Command line front end.

Exit codes: 0 success, 1 domain error (bad genus, odd degree, malformed
input), 2 internal invariant violation (a built-in identity failed or a
golden file mismatched), 64 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import acceptance, convex, serialize
from .errors import DomainError, InternalCheckError
from .hntypes import codim_hn, codim_deeper_stratum, enumerate_hn_types, enumerate_reductive_classes
from .rank2 import hodge_deligne_stable_rank2, hp_moduli_stable_rank2, moduli_dimension_rank2
from .semistable import SemistableSeries, moduli_dimension, stable_coprime_polynomial

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(USAGE_EXIT)


def build_parser():
    parser = _Parser(prog="hpbundles", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="evaluate series and polynomials")
    compute_sub = compute.add_subparsers(dest="target", required=True)

    ss = compute_sub.add_parser("ss", help="semistable-locus series")
    ss.add_argument("--rank", type=int, required=True)
    ss.add_argument("--deg", type=int, required=True)
    ss.add_argument("--genus", type=int, required=True)
    ss.add_argument("--order", type=int, default=12)
    ss.set_defaults(func=_cmd_ss)
    _output_flags(ss)

    stable2 = compute_sub.add_parser("stable2", help="stable rank-2 moduli polynomial, even degree")
    stable2.add_argument("--genus", type=int, required=True)
    stable2.add_argument("--deg", type=int, default=None, help="optional; must be even")
    stable2.add_argument("--deligne", action="store_true", help="emit the compact-support polynomial")
    stable2.add_argument("--golden", default=None, help="compare against (or create) a golden JSON file")
    stable2.set_defaults(func=_cmd_stable2)
    _output_flags(stable2)

    coprime = compute_sub.add_parser("coprime", help="moduli polynomial, coprime rank and degree")
    coprime.add_argument("--rank", type=int, required=True)
    coprime.add_argument("--deg", type=int, required=True)
    coprime.add_argument("--genus", type=int, required=True)
    coprime.set_defaults(func=_cmd_coprime)
    _output_flags(coprime)

    enum = sub.add_parser("enumerate", help="finite index sets")
    enum_sub = enum.add_subparsers(dest="target", required=True)

    hn = enum_sub.add_parser("hn-types", help="filtration types under a codimension cap")
    hn.add_argument("--rank", type=int, required=True)
    hn.add_argument("--deg", type=int, required=True)
    hn.add_argument("--genus", type=int, required=True)
    hn.add_argument("--max-codim", type=int, required=True)
    hn.set_defaults(func=_cmd_hn_types)
    _output_flags(hn)

    rc = enum_sub.add_parser("reductive-classes", help="blow-up stabilizer classes")
    rc.add_argument("--rank", type=int, required=True)
    rc.add_argument("--deg", type=int, required=True)
    rc.add_argument("--genus", type=int, default=None, help="optionally report codimensions")
    rc.set_defaults(func=_cmd_reductive_classes)
    _output_flags(rc)

    beta = sub.add_parser("beta", help="convex geometry of weight systems")
    beta_sub = beta.add_subparsers(dest="target", required=True)
    bidx = beta_sub.add_parser("index-set", help="unstable indices of a weight system")
    bidx.add_argument("--system", required=True, help="weight system JSON file")
    bidx.set_defaults(func=_cmd_index_set)
    _output_flags(bidx)

    verify = sub.add_parser("verify", help="run the bundled verification suite")
    verify.add_argument("--genus", type=int, default=None)
    verify.set_defaults(func=_cmd_verify)

    return parser


def _output_flags(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true")
    group.add_argument("--text", action="store_true")


def _emit(args, obj, text):
    if args.json:
        print(serialize.dumps(obj))
    else:
        print(text)


def _cmd_ss(args):
    evaluator = SemistableSeries()
    series = evaluator.series(args.rank, args.deg, args.genus, args.order)
    meta = {
        "rank": args.rank,
        "deg": args.deg,
        "genus": args.genus,
        "order": args.order,
        "sections_dim": args.deg + args.rank * (1 - args.genus),
        "memo_hits": evaluator.hits,
        "memo_misses": evaluator.misses,
        "types_used": evaluator.types_used,
    }
    obj = {"meta": meta, "series": serialize.series_to_obj(series)}
    text = "%s\n# meta: %s" % (series, json.dumps(meta))
    _emit(args, obj, text)
    return 0


def _cmd_stable2(args):
    if args.deg is not None and args.deg % 2 != 0:
        raise DomainError("degree must be even")
    if args.deligne:
        poly = hodge_deligne_stable_rank2(args.genus)
        kind = "hodge-deligne"
    else:
        poly = hp_moduli_stable_rank2(args.genus)
        kind = "hodge-poincare"
    obj = {
        "kind": kind,
        "genus": args.genus,
        "dim": moduli_dimension_rank2(args.genus),
        "poly": serialize.poly_to_obj(poly),
    }
    if args.golden:
        return _golden_compare(args.golden, obj)
    _emit(args, obj, str(poly))
    return 0


def _cmd_coprime(args):
    poly = stable_coprime_polynomial(args.rank, args.deg, args.genus)
    obj = {
        "kind": "hodge-poincare",
        "rank": args.rank,
        "deg": args.deg,
        "genus": args.genus,
        "dim": moduli_dimension(args.rank, args.genus),
        "poly": serialize.poly_to_obj(poly),
    }
    _emit(args, obj, str(poly))
    return 0


# What reading a JSON file can raise on bad input: ValueError for a
# malformed file or one that is not UTF-8, RecursionError for one nested
# deeper than the decoder recurses
_READ_ERRORS = (OSError, ValueError, RecursionError)


def _golden_compare(path, obj):
    payload = serialize.dumps(obj)
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                stored = json.load(handle)
        except _READ_ERRORS as err:
            raise DomainError("cannot read golden file %s: %s" % (path, err)) from err
        if stored != json.loads(payload):
            raise InternalCheckError("golden file %s does not match the computed value" % path)
        print("golden match: %s" % path)
        return 0
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    except OSError as err:
        raise DomainError("cannot write golden file %s: %s" % (path, err)) from err
    print("golden written: %s" % path)
    return 0


def _cmd_hn_types(args):
    types = enumerate_hn_types(args.rank, args.deg, args.genus, args.max_codim)
    entries = [serialize.hn_type_to_obj(t, codim=codim_hn(t, args.genus)) for t in types]
    obj = {
        "rank": args.rank,
        "deg": args.deg,
        "genus": args.genus,
        "max_codim": args.max_codim,
        "count": len(types),
        "types": entries,
    }
    if args.genus == 1:
        obj["warnings"] = ["genus 1: codimension bounds degenerate; downstream series need genus >= 2"]
    lines = ["%s  codim %d" % (t.quotients, e["codim"]) for t, e in zip(types, entries)]
    _emit(args, obj, "\n".join(lines) if lines else "(none)")
    return 0


def _cmd_reductive_classes(args):
    classes = enumerate_reductive_classes(args.rank, args.deg)
    entries = []
    for c in classes:
        codim = codim_deeper_stratum(c, args.rank, args.genus) if args.genus is not None else None
        entries.append(serialize.reductive_class_to_obj(c, codim=codim))
    obj = {"rank": args.rank, "deg": args.deg, "count": len(classes), "classes": entries}
    if args.genus == 1:
        obj["warnings"] = ["genus 1: codimension bounds degenerate; downstream series need genus >= 2"]
    lines = []
    for c, e in zip(classes, entries):
        extra = "  codim %s" % e["codim"] if e.get("codim") is not None else ""
        flag = "  (dimension bound)" if c.at_dimension_bound else ""
        lines.append("%s  dim %d%s%s" % (c.pairs, c.dim, extra, flag))
    _emit(args, obj, "\n".join(lines) if lines else "(none)")
    return 0


def _cmd_index_set(args):
    try:
        with open(args.system, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except _READ_ERRORS as err:
        raise DomainError("cannot read weight system: %s" % err) from err
    ws = serialize.weight_system_from_obj(raw)
    indices = convex.index_set(ws)
    entries = []
    for bi in indices:
        entry = serialize.beta_index_to_obj(bi)
        entry["codim"] = convex.stratum_codim(ws, bi)
        entries.append(entry)
    obj = {"count": len(indices), "indices": entries}
    lines = ["beta=%s  codim %d" % (e["beta"], e["codim"]) for e in entries]
    _emit(args, obj, "\n".join(lines) if lines else "(none)")
    return 0


def _cmd_verify(args):
    if args.genus is not None and args.genus < 2:
        raise DomainError("genus out of supported range")
    ok = acceptance.run_all(genus=args.genus)
    return 0 if ok else 2


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    # Every subparser level is required, so a parse that returns has
    # reached a leaf command, and each leaf sets func.
    try:
        return args.func(args)
    except DomainError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    except InternalCheckError as err:
        print("internal check failed: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
