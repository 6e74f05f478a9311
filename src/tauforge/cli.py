"""Command-line surface: parse datum/module files, dispatch operations, emit
human tables and machine JSON.

Exit codes: 0 = success/pass, 1 = mathematical failure (violation, non-root
where a root was expected, failing check), 2 = usage or parse error.  All
numeric output is exact (integers or "p/q" strings).  Headers and error
diagnostics go to stderr; stdout carries only the requested payload.
"""

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from .artrans import classify_module, tau, tau_inverse, tau_orbit
from .cartan import DatumError, datum_from_json, delta
from .catalogue import BadParams, UnknownId, UnknownType, build_named, datum_from_name, named_module_ids
from .linalg import Field
from .modio import rep_from_json, rep_to_json
from .modrep import check_relations, rank_vector
from .reflect import ContractViolation, NotASink, NotASource, reflect_minus, reflect_plus
from .rootsys import classify_positive_root, coxeter_data, enumerate_positive_roots
from .spotcheck import theorem_a_spotcheck
from .zoo import UnknownCheck, all_check_ids, run_suite, select_check_ids


class UsageError(Exception):
    pass


class MathFailure(Exception):
    pass


def _parse_field(text):
    if text is None or text == "rational":
        return Field.rational()
    m = re.fullmatch(r"p:([0-9]+)", text)
    if not m:
        raise UsageError("--field expects 'rational' or 'p:PRIME', got %r" % text)
    try:
        return Field.prime(int(m.group(1)))
    except ValueError as exc:
        raise UsageError(str(exc))


def _fraction_arg(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("expected an integer or p/q, got %r" % text)


def _resolve_datum_name(name):
    """Rebuild a catalogued datum from its canonical name (e.g. B3, CD4m2)."""
    try:
        return datum_from_name(name)
    except UnknownId:
        raise UsageError("module file names datum %r, which is not in the catalogue; "
                         "embed the datum object instead" % name)


def _load_json(path, kind, parse, datum_names=False):
    """parse(obj) of the JSON document obj in the file at ``path``, every
    failure mapped to one line.  With ``datum_names``, a path that cannot
    be opened, and a document that is a string, name a catalogued datum."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError("%s: invalid JSON (%s)" % (path, exc))
    except (OSError, ValueError) as exc:    # ValueError: a NUL byte, or bytes that are not UTF-8
        try:
            if datum_names:
                return datum_from_name(path)
        except UnknownId:
            pass
        raise UsageError("cannot read %s: %s" % (path, exc))
    if datum_names and isinstance(obj, str):
        return _resolve_datum_name(obj)
    try:
        return parse(obj)
    except DatumError as exc:
        raise MathFailure("%s: %s" % (path, exc))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError("%s: malformed %s file (%s)" % (path, kind, exc))


def _load_datum(path):
    return _load_json(path, "datum", datum_from_json, datum_names=True)


def _load_module(path):
    M = _load_json(path, "module", lambda obj: rep_from_json(obj, datum_resolver=_resolve_datum_name))
    bad = check_relations(M)
    if bad:
        raise MathFailure("%s: module violates the algebra relations (%s)" % (path, bad[0]))
    return M


def _csv(vec):
    return ",".join(str(x) for x in vec)


def _rank_text(rk):
    return _csv(rk) if rk is not None else "not-locally-free"


def _kind_text(cls):
    """The kind of a classified root with the parameters that go with it."""
    if cls.kind in ("preprojective", "preinjective"):
        return "%s r=%d vertex=%d" % (cls.kind, cls.r, cls.vertex)
    if cls.kind == "regular":
        return "%s period=%d" % (cls.kind, cls.period)
    return cls.kind


def _header(verb, name=None, field=None):
    parts = ["#", verb]
    if name is not None:
        parts.append("datum=%s" % (name or "custom"))
    if field is not None:
        parts.append("field=%s" % ("rational" if field.kind == "rational" else "p:%d" % field.p))
    print(" ".join(parts), file=sys.stderr)


def _dump_json(obj, path):
    if path is None:
        return
    text = json.dumps(obj, sort_keys=True, indent=2)
    if path == "-":
        print(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc))


def _check_writable(path):
    """Refuse a --json PATH that cannot be written, before any work.  PATH is
    opened for appending, so an existing file keeps its bytes, and a file
    the check had to create is removed again."""
    if path in (None, "-"):
        return
    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except (OSError, ValueError) as exc:    # ValueError: a NUL byte in the path
        raise UsageError("cannot write %s: %s" % (path, exc))
    if not existed:
        os.remove(path)


def _emit_module(M, path):
    _dump_json(rep_to_json(M, embed_datum=True), path)


def _affine_delta(datum, path):
    try:
        return delta(datum)
    except DatumError as exc:
        raise MathFailure("%s: %s" % (path, exc))


def _cmd_check_cartan(args):
    datum = _load_datum(args.datum)
    _header("check-cartan", datum.name)
    dlt = _affine_delta(datum, args.datum)
    print("ok name=%s vertices=%d delta=%s" % (datum.name or "custom", datum.n, _csv(dlt)))
    return 0


def _cmd_delta(args):
    datum = _load_datum(args.datum)
    _header("delta", datum.name)
    print(_csv(_affine_delta(datum, args.datum)))
    return 0


def _cmd_roots(args):
    if args.height < 0:
        raise UsageError("--height must be non-negative, got %d" % args.height)
    datum = _load_datum(args.datum)
    _header("roots", datum.name)
    for root in enumerate_positive_roots(datum, args.height):
        line = "%s height=%d" % (_csv(root), sum(root))
        if args.classify:
            line += " kind=%s" % _kind_text(classify_positive_root(datum, root))
        print(line)
    return 0


def _parse_vector(text, size):
    try:
        vec = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError("--vector expects comma-separated integers, got %r" % text)
    if len(vec) != size:
        raise UsageError("--vector has %d entries; the datum has %d vertices" % (len(vec), size))
    return vec


def _cmd_coxeter(args):
    datum = _load_datum(args.datum)
    _header("coxeter", datum.name)
    cd = coxeter_data(datum)
    if args.apply is not None or args.vector is not None:
        if args.apply is None or args.vector is None:
            raise UsageError("--apply and --vector must be given together")
        vec = _parse_vector(args.vector, datum.n)
        print(_csv(cd.c_apply(vec, args.apply)))
        return 0
    if cd.N is None:
        raise MathFailure("%s: datum is not affine: the Coxeter transformation has no "
                          "period N" % args.datum)
    print("sequence=%s" % _csv(cd.sequence))
    print("N=%d" % cd.N)
    print("nu=%s" % _csv(cd.nu))
    for name, vectors in (("beta", cd.beta), ("gamma", cd.gamma)):
        for k, vec in enumerate(vectors, start=1):
            print("%s[%d]=%s" % (name, k, _csv(vec)))
    return 0


def _cmd_mod(args):
    if args.orbit is not None and not 1 <= args.orbit <= sys.maxsize:
        raise UsageError("--orbit window must be positive" if args.orbit < 1
                         else "--orbit window must be at most %d" % sys.maxsize)
    M = _load_module(args.file)
    _header("mod %s" % args.op, M.datum.name, M.field)
    rk = rank_vector(M)
    print("rank=%s" % _rank_text(rk))
    exit_code = 0
    if args.classify:
        if rk is None:
            raise MathFailure("%s: module is not locally free, so it has no rank vector to classify"
                              % args.file)
        cls = classify_module(M)
        print("classification=%s" % _kind_text(cls))
        if cls.kind == "not_root":
            exit_code = 1
    if args.orbit is not None:
        ranks, period, witness = tau_orbit(M, args.orbit)
        for k in sorted(ranks):
            print("tau^%d rank=%s" % (k, _rank_text(ranks[k])))
        print("period=%s" % (period if period is not None else "none"))
        if witness is not None:
            _emit_module(witness, args.json)
        return exit_code
    moved = (tau_inverse(M) if args.inverse else tau(M)).module
    print("translate-rank=%s" % _rank_text(rank_vector(moved)))
    _emit_module(moved, args.json)
    return exit_code


def _cmd_reflect(args):
    if args.dir not in ("+", "-"):
        raise UsageError("--dir must be '+' or '-'")
    M = _load_module(args.file)
    _header("reflect", M.datum.name, M.field)
    try:
        out = (reflect_plus if args.dir == "+" else reflect_minus)(M.datum, args.vertex, M)
    except (NotASink, NotASource) as exc:
        raise UsageError(str(exc))
    except ContractViolation as exc:
        raise MathFailure(str(exc))
    print("datum=%s" % (out.datum.name or "custom"))
    print("rank=%s" % _rank_text(rank_vector(out)))
    _emit_module(out, args.json)
    return 0


def _cmd_zoo(args):
    field = _parse_field(args.field)
    if args.list:
        _header("zoo list")
        for mid in named_module_ids():
            print("module %s" % mid)
        for cid in all_check_ids():
            print("check %s" % cid)
        return 0
    if args.spotcheck is not None:
        report = theorem_a_spotcheck(args.spotcheck, n=args.n, height_bound=args.height, field=field)
        _header("zoo spotcheck", report.evidence.get("datum"), field)
        print("%s %s" % (report.check_id, report.status))
        _dump_json(report.to_json(), args.json)
        return 0 if report.passed else 1
    if args.build is None:
        raise UsageError("zoo needs one of --list, --build ID, --spotcheck TYPE")
    params = {name: value for name in ("n", "m", "i", "j", "lam") if (value := getattr(args, name)) is not None}
    datum, M = build_named(args.build, field=field, **params)
    _header("zoo build", datum.name, field)
    print("rank=%s" % _rank_text(rank_vector(M)))
    _emit_module(M, args.json)
    return 0


def _cmd_verify(args):
    field = _parse_field(args.field)
    _header("verify suite=%s" % args.suite, None, field)
    if args.filter and not select_check_ids(args.filter):
        raise UsageError("--filter %r matches no check id" % args.filter)
    reports = run_suite(filter_id=args.filter, field=field, n=args.n)
    for report in reports:
        print("%-10s %s" % (report.check_id, report.status))
    _dump_json([r.to_json() for r in reports], args.json)
    return 0 if all(r.passed for r in reports) else 1


@functools.cache
def _build_parser():
    """The parser, built once per process: a parse keeps no state in it."""
    parser = argparse.ArgumentParser(prog="tauforge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check-cartan", help="validate a datum file")
    p.add_argument("--datum", required=True)
    p.set_defaults(run=_cmd_check_cartan)

    p = sub.add_parser("delta", help="print the radical generator of the form")
    p.add_argument("--datum", required=True)
    p.set_defaults(run=_cmd_delta)

    p = sub.add_parser("roots", help="enumerate positive roots up to a height")
    p.add_argument("--datum", required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--classify", action="store_true")
    p.set_defaults(run=_cmd_roots)

    p = sub.add_parser("coxeter", help="Coxeter transformation data")
    p.add_argument("--datum", required=True)
    p.add_argument("--apply", type=int)
    p.add_argument("--vector")
    p.set_defaults(run=_cmd_coxeter)

    p = sub.add_parser("mod", help="module operations")
    p.add_argument("op", choices=["tau"])
    p.add_argument("file")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--orbit", type=int)
    p.add_argument("--classify", action="store_true")
    p.add_argument("--json")
    p.set_defaults(run=_cmd_mod)

    p = sub.add_parser("reflect", help="apply a reflection functor")
    p.add_argument("file")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--json")
    p.set_defaults(run=_cmd_reflect)

    p = sub.add_parser("zoo", help="catalogued data, modules, and spot-checks")
    p.add_argument("--list", action="store_true")
    p.add_argument("--build", metavar="ID")
    p.add_argument("--spotcheck", metavar="TYPE")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--lam", type=_fraction_arg)
    p.add_argument("--height", type=int, default=25)
    p.add_argument("--field")
    p.add_argument("--json")
    p.set_defaults(run=_cmd_zoo)

    p = sub.add_parser("verify", help="run the named verification scenarios")
    p.add_argument("--suite", choices=["paper"], required=True)
    p.add_argument("--filter")
    p.add_argument("--n", type=int)
    p.add_argument("--field")
    p.add_argument("--json")
    p.set_defaults(run=_cmd_verify)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_writable(getattr(args, "json", None))
        return args.run(args)
    except (UsageError, UnknownId, UnknownCheck, UnknownType, BadParams) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MathFailure as exc:
        print("fail: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
