"""Command-line front end.

Subcommands:

* ``parse``      echo a presentation file in canonical form
* ``alexander``  Alexander polynomial of a presentation file
* ``family``     emit presentation, longitude, or polynomial for (n, m)
* ``certify``    root certificate (and residual) for (n, m)
* ``classify``   surgery slope verdict for (n, m) and p/q
* ``table``      family summary over a parameter rectangle

Exit codes: 0 on success, 1 on domain errors (one machine-parseable line on
stderr, one per failed member for ``table``), 2 on usage errors.
``--file -`` reads stdin.  Output is deterministic: identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

from .errors import KnotAlexError


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _print_json(payload) -> None:
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))


def _poly_output(poly, as_json: bool) -> None:
    from .laurent import format_poly, to_json_dict

    if as_json:
        _print_json(to_json_dict(poly))
    else:
        print(format_poly(poly))


def _cmd_parse(args: argparse.Namespace) -> int:
    from .words import parse_presentation

    presentation = parse_presentation(_read_source(args.file))
    if args.json:
        _print_json(
            {
                "generators": list(presentation.generators),
                "relators": [rel.render() for rel in presentation.relators],
                "meridian": presentation.meridian,
            }
        )
    else:
        print(presentation.to_text(), end="")
    return 0


def _cmd_alexander(args: argparse.Namespace) -> int:
    from .alexander import alexander_polynomial
    from .words import parse_presentation

    presentation = parse_presentation(_read_source(args.file))
    _poly_output(alexander_polynomial(presentation), args.json)
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    from .family import (
        FamilyParams,
        closed_form_alexander,
        knot_group_presentation,
        preferred_longitude,
    )

    if args.json and args.emit != "alexander":
        args.error("--json applies only to --emit alexander")
    params = FamilyParams(args.n, args.m)
    if args.emit == "presentation":
        print(knot_group_presentation(params).to_text(), end="")
    elif args.emit == "longitude":
        print(preferred_longitude(params).render())
    else:
        _poly_output(closed_form_alexander(params.n, params.m), args.json)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from .family import FamilyParams
    from .rootcert import certificate_record, certify_family_root

    params = FamilyParams(args.n, args.m)
    record = certificate_record(params, certify_family_root(params))
    if args.json:
        _print_json(record)
    else:
        print(f"kind: {record['kind']}")
        print(f"interval: ({record['theta_lo']!r}, {record['theta_hi']!r})")
        print(f"theta_star: {record['theta_star']!r}")
        print(f"g_lo: {record['g_lo']!r}")
        print(f"g_hi: {record['g_hi']!r}")
        print(f"residual: {record['residual']:.3e}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from .family import FamilyParams, SurgerySlope, classify_surgery

    params = FamilyParams(args.n, args.m)
    slope = SurgerySlope(args.p, args.q)
    result = classify_surgery(params, slope)
    if args.json:
        _print_json(
            {
                "slope": str(slope),
                "verdict": result.verdict.value,
                "slope_bound": result.slope_bound,
                "near_zero_note": result.near_zero_note,
            }
        )
    else:
        print(f"{result.verdict.value} (bound {result.slope_bound})")
    return 0


_TABLE_HEADER = ("n", "m", "genus", "slope_bound", "span", "theta_star", "residual")


def _table_rows(n_max: int, m_max: int) -> tuple[list[tuple[str, ...]], list[str]]:
    """The table's rows, and one error line per member that failed to certify."""
    from .family import FamilyParams, genus, slope_bound
    from .rootcert import certificate_record, certify_family_root

    rows = []
    errors = []
    for n in range(1, n_max + 1):
        for m in range(1, m_max + 1):
            params = FamilyParams(n, m)
            try:
                record = certificate_record(params, certify_family_root(params))
                star = f"{record['theta_star']:.12g}"
                res = f"{record['residual']:.3e}"
            except KnotAlexError as exc:
                star = res = f"!{type(exc).__name__}"
                errors.append(f"error: (n, m) = ({n}, {m}): {type(exc).__name__}: {exc}")
            g = genus(params)
            # the closed form's span is always 2 * genus
            rows.append(
                (str(n), str(m), str(g), str(slope_bound(params)), str(2 * g), star, res)
            )
    return rows, errors


def _cmd_table(args: argparse.Namespace) -> int:
    if args.n_max < 1 or args.m_max < 1:
        raise ValueError(
            f"table bounds must be at least 1, got --n-max {args.n_max} "
            f"--m-max {args.m_max}"
        )
    rows, errors = _table_rows(args.n_max, args.m_max)
    for line in errors:
        print(line, file=sys.stderr)
    table = [_TABLE_HEADER, *rows]
    if args.tsv:
        for row in table:
            print("\t".join(row))
    else:
        widths = [max(len(row[i]) for row in table) for i in range(len(_TABLE_HEADER))]
        for row in table:
            print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if errors else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotalex",
        description="Alexander polynomials, twisted torus knot family data, "
        "certified unit-circle roots, and surgery slope classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="validate and echo a presentation file")
    p_parse.add_argument("--file", required=True, help="presentation file, or - for stdin")
    p_parse.add_argument("--json", action="store_true")
    p_parse.set_defaults(func=_cmd_parse)

    p_alex = sub.add_parser("alexander", help="Alexander polynomial of a presentation")
    p_alex.add_argument("--file", required=True, help="presentation file, or - for stdin")
    p_alex.add_argument("--json", action="store_true")
    p_alex.set_defaults(func=_cmd_alexander)

    p_family = sub.add_parser("family", help="emit data for family member (n, m)")
    p_family.add_argument("--n", type=int, required=True)
    p_family.add_argument("--m", type=int, required=True)
    p_family.add_argument(
        "--emit",
        choices=("presentation", "longitude", "alexander"),
        required=True,
    )
    p_family.add_argument("--json", action="store_true")
    p_family.set_defaults(func=_cmd_family, error=p_family.error)

    p_certify = sub.add_parser("certify", help="certify the family's unit-circle root")
    p_certify.add_argument("--n", type=int, required=True)
    p_certify.add_argument("--m", type=int, required=True)
    p_certify.add_argument("--json", action="store_true")
    p_certify.set_defaults(func=_cmd_certify)

    p_classify = sub.add_parser("classify", help="classify a surgery slope p/q")
    p_classify.add_argument("--n", type=int, required=True)
    p_classify.add_argument("--m", type=int, required=True)
    p_classify.add_argument("--p", type=int, required=True)
    p_classify.add_argument("--q", type=int, required=True)
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(func=_cmd_classify)

    p_table = sub.add_parser("table", help="family summary over a parameter rectangle")
    p_table.add_argument("--n-max", type=int, required=True)
    p_table.add_argument("--m-max", type=int, required=True)
    p_table.add_argument("--tsv", action="store_true", help="tab-separated output")
    p_table.set_defaults(func=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KnotAlexError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
