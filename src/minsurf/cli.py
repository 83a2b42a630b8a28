"""Command-line interface: verify | analyze | catalog | mesh.

Exit codes: 0 success, 1 mathematical rejection (invalid datum), 2 usage or
parse error.  ``analyze`` output is deterministic byte-for-byte on identical
input.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, catalog, mesh, wdfile
from .errors import DatumRejectedError, MinsurfError, ParseError, UsageError
from .rational import is_infinity
from .report import report_to_json, run_analysis, sha256_of
from .weierstrass import validate


def _load_data(path):
    return wdfile.load(path).to_data()


def _fmt_point(p):
    return "inf" if is_infinity(p) else f"{p.real:g}{p.imag:+g}i"


def cmd_verify(args) -> int:
    data = _load_data(args.input)
    report = validate(data)
    for msg in report.messages:
        print(f"verify: {msg}", file=sys.stderr)
    if report.ok:
        print(f"{args.input}: valid complete finite-total-curvature datum "
              f"(n={data.n}, {len(data.punctures)} ends)")
        return 0
    print(f"{args.input}: datum rejected", file=sys.stderr)
    return 1


def cmd_analyze(args) -> int:
    data = _load_data(args.input)
    rep = run_analysis(data, input_sha256=sha256_of(args.input))
    if not rep.valid:
        raise DatumRejectedError(args.input, rep.validation.messages)
    c = rep.curvature
    print(f"label:            {rep.label or '(unnamed)'}")
    print(f"ambient dim:      {rep.n}")
    print(f"ends:             {c.m}  (chi = {c.chi})")
    print(f"Gauss map degree: {c.d}")
    print(f"total curvature:  {c.tc_pi}*pi  (numeric {c.tc_numeric:.6f})")
    print(f"CO bound:         {c.co_rhs_pi}*pi  -> equality: {c.co_equality}")
    print(f"full: {c.full}   l = {c.l}")
    print(f"Gackstatter rhs:  {c.gackstatter_pi}*pi"
          f"  (applicable: {c.gackstatter_applicable})")
    print(f"Ejiri rhs:        {c.ejiri_pi}*pi  -> equality: {c.ejiri_equality}")
    for e in rep.ends:
        print(f"end {_fmt_point(e.puncture)}: mu={e.mu} {e.classification.value}"
              f" a={e.a:.6g} b={e.b:.6g} rotation index {e.rotation_index}"
              f" embedded={e.embedded}")
    print(f"equality/end-type cross-check: "
          f"{'consistent' if rep.equality_consistent else 'INCONSISTENT'}")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report_to_json(rep))
        print(f"report written to {args.json}")
    return 0


def cmd_catalog(args) -> int:
    if args.name is None:
        for name in catalog.names():
            print(name)
        return 0
    try:
        entry = catalog.get(args.name, args.param)
    except KeyError as exc:
        print(f"catalog: {exc.args[0]}", file=sys.stderr)
        return 2
    out = args.output or f"{entry.name}.wd"
    wdfile.dump(wdfile.document_from_data(entry.data, label=entry.name), out)
    data = entry.data
    print(f"{out}: n={data.n}, {len(data.punctures)} punctures")
    return 0


def cmd_mesh(args) -> int:
    data = _load_data(args.input)
    report = validate(data)
    if not report.ok:
        raise DatumRejectedError(args.input, report.messages)
    projection = None
    if args.project:
        try:
            axes = [int(x) - 1 for x in args.project.split(",")]
            projection = mesh.check_projection(axes, data.n)
        except ValueError:
            raise UsageError(f"--project takes three distinct axes from 1 to {data.n}, "
                             f"not {args.project!r}") from None
    tri = mesh.sample_domain(data, r_min=args.rmin, r_max=args.rmax, res=args.res)
    surface = mesh.build_mesh(data, tri)
    written = mesh.export_obj(surface, args.output, projection=projection)
    print(f"{written[0]}: {surface.vertices.shape[0]} vertices, "
          f"{surface.faces.shape[0]} faces"
          + (f" (+ sidecar {written[1]})" if len(written) > 1 else ""))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="minsurf",
        description="Validate and analyze Weierstrass data of complete "
                    "finite-total-curvature minimal surfaces.",
    )
    ap.add_argument("--version", action="version", version=f"minsurf {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="structural validation of a datum file")
    p.add_argument("input")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="full curvature and end analysis")
    p.add_argument("input")
    p.add_argument("--json", metavar="PATH", help="write the structured report here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("catalog", help="list catalog entries or write one to a file")
    p.add_argument("name", nargs="?", help="entry name (omit to list)")
    p.add_argument("--param", type=int, metavar="M",
                   help="family parameter (generalized-jorge-meeks)")
    p.add_argument("-o", "--output", metavar="PATH")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("mesh", help="triangulate and export an OBJ mesh")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True, metavar="PATH")
    p.add_argument("--rmin", type=float, default=1e-2)
    p.add_argument("--rmax", type=float, default=1.0)
    p.add_argument("--res", type=int, default=32)
    p.add_argument("--project", metavar="I,J,K",
                   help="1-based coordinate axes for OBJ export")
    p.set_defaults(func=cmd_mesh)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        loc = f" (line {exc.line}, column {exc.column})" if exc.line else ""
        print(f"minsurf: parse error{loc}: {exc}", file=sys.stderr)
        return 2
    except (OSError, UsageError) as exc:  # an unreadable path, a parameter out of range
        print(f"minsurf: {exc}", file=sys.stderr)
        return 2
    except MinsurfError as exc:
        print(f"minsurf: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
