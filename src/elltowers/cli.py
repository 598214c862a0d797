"""Command-line interface.

Subcommands: validate, table, fit, lvalues, qseries, export-dot.  Data
written to --out (or stdout) is deterministic: fixed orderings, no
timestamps; per-layer wall times go to stderr only.

Exit codes: 0 success, 1 domain failure (validation, disconnection, route
mismatch), 2 usage or parse failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from .fit import (
    RouteMismatchError,
    ValuationSequence,
    SequenceEntry,
    fit_window,
    format_fit,
    leading_coefficients_integral,
    monomial_basis,
    sequence_entry,
    verify_fit,
)
from .graphs import GraphInputError, validate_base
from .lfunctions import TowerCalculator, orbit_records
from .series import q_series
from .voltage import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    DisconnectedCoverError,
    SpecFormatError,
    check_tower_connectivity,
    derived_graph,
    derived_to_dot,
    load_tower_spec_file,
)


def _int_at_least(minimum: int):
    """argparse type: an integer >= minimum, anything else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"need an integer >= {minimum}, got {text!r}")
        return value

    return parse


_nonnegative = _int_at_least(0)
_positive = _int_at_least(1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="elltowers", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_max=False, output=False, budget=False):
        p.add_argument("--spec", required=True, help="tower spec JSON file")
        if n_max:
            p.add_argument("--n-max", type=_nonnegative, required=True, help="deepest layer to compute")
        if budget:
            p.add_argument(
                "--budget",
                type=_nonnegative,
                default=DEFAULT_BUDGET,
                help=f"vertex budget for building layers explicitly (default {DEFAULT_BUDGET})",
            )
        if output:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
            p.add_argument("--out", default=None, help="output path (default: stdout)")

    common(sub.add_parser("validate", help="check the spec and tower connectivity"))

    p = sub.add_parser("table", help="per-layer valuations of the tree numbers")
    common(p, n_max=True, output=True, budget=True)

    p = sub.add_parser("fit", help="candidate growth polynomial from the deepest window")
    common(p, n_max=True, output=True, budget=True)

    p = sub.add_parser("lvalues", help="per-orbit special values at one layer")
    common(p, output=True)
    p.add_argument("--level", type=_positive, required=True, help="layer n >= 1")
    p.add_argument(
        "--digit-limit",
        type=_nonnegative,
        default=0,
        help="suppress integer values predicted to exceed this many digits (0 = no limit)",
    )

    p = sub.add_parser("qseries", help="exact coefficients of the determinant series Q(T) times a unit")
    common(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("export-dot", help="DOT rendering of one layer, fiber-colored")
    common(p, budget=True)
    p.add_argument("--layer", type=_nonnegative, required=True)
    p.add_argument("--out", default=None)

    return parser


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _monomial_label(k: int, j: int) -> str:
    parts = []
    if k == 1:
        parts.append("X")
    elif k > 1:
        parts.append(f"X^{k}")
    if j == 1:
        parts.append("Y")
    return "*".join(parts) if parts else "1"


# subcommands -------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace, spec) -> int:
    report = validate_base(spec.base)
    reasons = report.reasons
    tower_ok = False
    if report.connected:  # otherwise validate_base has already said so
        conn = check_tower_connectivity(spec)
        reasons += conn.reasons
        tower_ok = conn.ok
    for reason in reasons:
        print(f"FAIL: {reason}")
    if report.ok:
        print(
            f"base: connected, min valency {report.min_valency}, "
            f"euler characteristic {report.euler_characteristic}"
        )
    if tower_ok:
        print(f"tower: connected at every layer (mod-{spec.ell} rank {conn.rank})")
    return 0 if report.ok and tower_ok else 1


def _sequence_rows(seq: ValuationSequence):
    return [{"n": e.n, "ord": e.ord_ell, "route": e.route} for e in seq.entries]


def _render_rows(rows, fmt: str, meta=None) -> str:
    if fmt == "json":
        doc = {"rows": rows}
        if meta:
            doc.update(meta)
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if rows:
        header = list(rows[0])
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[h] for h in header])
    return buf.getvalue()


def _compute_sequence(args: argparse.Namespace, spec) -> ValuationSequence:
    calc = TowerCalculator(spec)
    if args.n_max == 0:
        base = calc.base_tree_count()
        return ValuationSequence(spec.ell, spec.d, (SequenceEntry(0, base.ord_ell, "matrix-tree"),))
    entries = []
    t_prev = time.perf_counter()
    for n in range(1, args.n_max + 1):
        entries.append(sequence_entry(calc, n, args.budget))
        now = time.perf_counter()
        print(f"# layer {n}: {now - t_prev:.2f}s", file=sys.stderr)
        t_prev = now
    return ValuationSequence(spec.ell, spec.d, tuple(entries))


def _cmd_table(args: argparse.Namespace, spec) -> int:
    seq = _compute_sequence(args, spec)
    meta = {"ell": spec.ell, "d": spec.d}
    _emit(_render_rows(_sequence_rows(seq), args.format, meta), args.out)
    return 0


def _cmd_fit(args: argparse.Namespace, spec) -> int:
    unknowns = len(monomial_basis(spec.d))
    if args.n_max < unknowns:
        print(f"error: need at least {unknowns} layers to fit (got {args.n_max})", file=sys.stderr)
        return 1
    seq = _compute_sequence(args, spec)
    window = (args.n_max - unknowns + 1, args.n_max)
    fit = fit_window(seq, window)
    # the fit is exact on its window, so the verified suffix covers it; the
    # window one layer earlier gives the same fit iff the fit also reproduces
    # the layer before its window
    verified, _ = verify_fit(fit, seq)
    stable = verified[0] < window[0] if window[0] > 1 else None
    formula, integral = format_fit(fit), leading_coefficients_integral(fit)
    coefficients = {_monomial_label(k, j): str(c) for (k, j), c in fit.coefficients.items()}
    rows = _sequence_rows(seq)
    meta = {
        "ell": spec.ell,
        "d": spec.d,
        "formula": formula,
        "coefficients": coefficients,
        "window": list(fit.window),
        "verified_range": list(verified),
        "stable": stable,
        "leading_coefficients_integral": integral,
    }
    if args.format == "csv":  # one monomial,coefficient row per coefficient, then the summary
        summary = {
            **coefficients,
            "window": f"{fit.window[0]}..{fit.window[1]}",
            "verified_range": f"{verified[0]}..{verified[1]}",
            "stable": stable,
            "formula": formula,
        }
        rows = [{"monomial": name, "coefficient": value} for name, value in summary.items()]
    _emit(_render_rows(rows, args.format, meta), args.out)
    if stable and not integral:
        print("warning: stable fit with non-integral leading coefficients", file=sys.stderr)
    return 0


def _cmd_lvalues(args: argparse.Namespace, spec) -> int:
    records = orbit_records(spec, args.level, digit_limit=args.digit_limit)
    rows = []
    for rec in records:
        rows.append(
            {
                "representative": " ".join(map(str, rec.orbit.representative.vector)),
                "size": rec.orbit.size,
                "value": str(rec.integer_value) if rec.integer_value is not None else "",
                "ord": rec.ord_ell,
            }
        )
    _emit(_render_rows(rows, args.format, {"ell": spec.ell, "level": args.level}), args.out)
    return 0


def _cmd_qseries(args: argparse.Namespace, spec) -> int:
    TowerCalculator(spec)  # the base and tower checks that table makes
    unit_exponents, q = q_series(spec)
    doc = {
        "variables": spec.d,
        "unit_exponents": list(unit_exponents),
        "coefficients": {",".join(map(str, expo)): str(c) for expo, c in sorted(q.terms.items())},
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_export_dot(args: argparse.Namespace, spec) -> int:
    layer = derived_graph(spec, args.layer, vertex_budget=args.budget)
    _emit(derived_to_dot(layer), args.out)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "table": _cmd_table,
    "fit": _cmd_fit,
    "lvalues": _cmd_lvalues,
    "qseries": _cmd_qseries,
    "export-dot": _cmd_export_dot,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, load_tower_spec_file(args.spec))
    except (SpecFormatError, GraphInputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RouteMismatchError as err:
        print(f"error: {err}", file=sys.stderr)
        for rec in err.records:
            print(
                f"  orbit {rec.orbit.representative.vector}: ord {rec.ord_ell}, value {rec.integer_value}",
                file=sys.stderr,
            )
        return 1
    except (DisconnectedCoverError, BudgetExceededError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
