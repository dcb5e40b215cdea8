"""Command-line interface.

Subcommands: gen, norm, apply-j, pair, product, mult-norm, verify, sweep.
Numeric arguments accept fractions ("4/3") so conjugate-exponent boundaries
stay exact; a JSON config file may supply any flag (explicit flags win).
Exit codes: 0 success, 1 check failure, 2 usage error.  All randomized
behavior is a pure function of --seed, and identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from fractions import Fraction

from .calculus import SpaceIndex, duality_pair, hs_norm, lift, pointwise_product
from .coeffio import CoeffFileError, parse_coeff_file, write_coeff_file
from .generators import KINDS, gen_distribution
from .lattice import make_lattice
from .multipliers import (
    CSV_COLUMNS,
    HypothesisError,
    MultiplierProblem,
    equivalence_report,
    index_cells,
)
from .verify import SUITES, VerifyContext, format_report, run_suite


class UsageError(ValueError):
    pass


def _numeric(text: str):
    """Parse a CLI number: '4/3' -> Fraction, '2' -> int, '1.5' -> float."""
    text = str(text).strip()
    if "/" in text:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    try:
        return int(text)
    except ValueError:
        return float(text)


def _numeric_list(text: str):
    return [_numeric(part) for part in str(text).split(",") if part.strip()]


def _int_list(text: str):
    return [int(part) for part in str(text).split(",") if part.strip()]


def _subcommand(sub, name: str, summary: str, run) -> argparse.ArgumentParser:
    """Add a subcommand parser whose ``args.run`` is ``run``.  Its
    ``config_converters`` maps each flag's dest, which a config file may set, to
    that flag's ``(type, choices)``; a store_true flag's type is ``bool``.
    Positionals are not listed: the command line always supplies them."""
    parser = sub.add_parser(name, help=summary)
    parser.set_defaults(run=run)
    parser.config_converters = {}
    return parser


def _arg(parser, *names, **kwargs):
    action = parser.add_argument(*names, **kwargs)
    if action.option_strings:
        kind = bool if action.nargs == 0 else action.type
        parser.config_converters[action.dest] = (kind, action.choices)
    return action


def _config_value(value, kind, choices):
    """Convert a config value as its flag converts the same text on the command
    line; a store_true flag takes only a JSON boolean."""
    if kind is bool:
        if not isinstance(value, bool):
            raise ValueError("expected true or false")
        return value
    if value is None or isinstance(value, (bool, list, dict)):
        raise ValueError("expected a JSON string or number")
    value = str(value) if kind is None else kind(str(value))
    if choices is not None and value not in choices:
        raise ValueError(f"invalid choice (choose from {', '.join(map(repr, choices))})")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peribessel",
        description=(
            "Spectral calculus on periodic Bessel potential spaces: norms, "
            "lifting, duality pairings, pointwise products, and multiplier-norm "
            "experiments on truncated coefficient fields."
        ),
    )
    parser.add_argument("--config", help="JSON file supplying defaults for any flag")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommand_registry = sub.choices

    gen = _subcommand(sub, "gen", "generate a coefficient field and write it to a file", _cmd_gen)
    _arg(gen, "--kind", choices=KINDS, required=True)
    _arg(gen, "--n", type=int, default=1, help="torus dimension")
    _arg(gen, "--radius", type=int, default=8, help="lattice radius R")
    _arg(gen, "--alpha", type=float, default=None, help="decay exponent for power-decay")
    _arg(gen, "--seed", type=int, default=0)
    _arg(gen, "--out", required=True, help="output coefficient file (JSON)")

    norm = _subcommand(sub, "norm", "H^s_p norm of a coefficient field", _cmd_norm)
    _arg(norm, "--input", required=True, help="coefficient file")
    _arg(norm, "--s", type=_numeric, default=0)
    _arg(norm, "--p", type=_numeric, default=2)
    _arg(norm, "--grid-size", type=int, default=None, help="quadrature points per axis")
    _arg(norm, "--format", choices=("json", "csv"), default="json")

    applyj = _subcommand(sub, "apply-j", "apply the lifting operator of order s", _cmd_apply_j)
    _arg(applyj, "--input", required=True)
    _arg(applyj, "--s", type=_numeric, default=0)
    _arg(applyj, "--out", required=True)

    pair = _subcommand(sub, "pair", "duality pairing of two coefficient fields", _cmd_pair)
    _arg(pair, "--input", required=True, help="first field (negative-order side)")
    _arg(pair, "--input2", required=True, help="second field (positive-order side)")
    _arg(pair, "--s", type=_numeric, default=0)
    _arg(pair, "--format", choices=("json", "csv"), default="json")

    product = _subcommand(sub, "product", "pointwise product of two fields", _cmd_product)
    _arg(product, "--input", required=True, help="smooth factor")
    _arg(product, "--input2", required=True, help="distribution factor")
    _arg(
        product,
        "--exact-product",
        action="store_true",
        help="keep the full convolution on a radius-2R lattice instead of truncating",
    )
    _arg(product, "--out", required=True)

    mult = _subcommand(sub, "mult-norm", "multiplier norm vs intersection norm", _cmd_mult_norm)
    _arg(mult, "--input", required=True)
    _arg(mult, "--s", type=_numeric, default=1)
    _arg(mult, "--t", type=_numeric, default=1)
    _arg(mult, "--p", type=_numeric, default=2)
    _arg(mult, "--q", type=_numeric, default=2)
    _arg(mult, "--radii", type=_int_list, default=None, help="refinement radii, e.g. 4,8")
    _arg(mult, "--grid-size", type=int, default=None)
    _arg(mult, "--force", action="store_true", help="skip the index-hypothesis gate")
    _arg(mult, "--format", choices=("json", "csv"), default="json")

    verify = _subcommand(sub, "verify", "run a verification suite", _cmd_verify)
    _arg(verify, "suite", choices=SUITES + ("all",))
    _arg(verify, "--radius", type=int, default=8)
    _arg(verify, "--n", type=int, default=1)
    _arg(verify, "--seed", type=int, default=0)
    _arg(verify, "--s", type=_numeric, default=1)
    _arg(verify, "--t", type=_numeric, default=1)
    _arg(verify, "--p", type=_numeric, default=2)
    _arg(verify, "--format", choices=("text", "json"), default="text")

    sweep = _subcommand(sub, "sweep", "multiplier-norm sweep over an index grid", _cmd_sweep)
    _arg(sweep, "--s-grid", type=_numeric_list, required=True, help="e.g. 1,1.5,2")
    _arg(sweep, "--t-grid", type=_numeric_list, required=True)
    _arg(sweep, "--p-grid", type=_numeric_list, required=True)
    _arg(sweep, "--q-grid", type=_numeric_list, required=True)
    _arg(sweep, "--radius-grid", type=_int_list, required=True)
    _arg(sweep, "--u-kind", choices=KINDS, default="power-decay")
    _arg(sweep, "--alpha", type=float, default=3.0)
    _arg(sweep, "--n", type=int, default=1)
    _arg(sweep, "--seed", type=int, default=0)
    _arg(sweep, "--grid-size", type=int, default=None)
    _arg(sweep, "--force", action="store_true")
    _arg(sweep, "--out", required=True, help="output CSV path")

    return parser


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv.  With --config, install the file's values as defaults of the
    subcommand being run, each as its flag takes it, and parse again: flags win,
    and a config value stands in for a required flag."""
    config_flag = argparse.ArgumentParser(add_help=False)
    config_flag.add_argument("--config", nargs="?")
    path = config_flag.parse_known_args(argv)[0].config
    if not path:
        return parser.parse_args(argv)
    with open(path, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise UsageError("config file must hold a JSON object")
    registry = parser.subcommand_registry
    unknown = set(config).difference(*(sub.config_converters for sub in registry.values()))
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for sub in registry.values():
        for action in sub._actions:
            if action.option_strings and action.dest in config:
                action.required = False
    args = parser.parse_args(argv)
    subparser = registry[args.command]
    defaults = {}
    for key, value in config.items():
        if key in subparser.config_converters:
            try:
                defaults[key] = _config_value(value, *subparser.config_converters[key])
            except (TypeError, ValueError) as exc:
                raise UsageError(f"config value {key}={value!r}: {exc}") from None
    subparser.set_defaults(**defaults)
    return parser.parse_args(argv)


def _emit_record(record: dict, fmt: str, stream):
    if fmt == "json":
        stream.write(json.dumps(record) + "\n")
    else:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(record.keys())
        writer.writerow(
            [repr(v) if isinstance(v, float) else v for v in record.values()]
        )


def _lattice(n, radius):
    """``make_lattice(n, radius)``, its refusal a usage error."""
    try:
        return make_lattice(n, radius)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_grid_size(grid_size, radius: int):
    """Refuse a ``--grid-size`` below 2R+1 for the largest radius R it samples."""
    if grid_size is not None and grid_size < 2 * radius + 1:
        raise UsageError(f"--grid-size {grid_size} is below 2R+1 = {2 * radius + 1}")


def _cmd_gen(args) -> int:
    if args.kind == "power-decay" and args.alpha is None:
        raise UsageError("--kind power-decay requires --alpha")
    lattice = _lattice(args.n, args.radius)
    field = gen_distribution(args.kind, lattice, alpha=args.alpha, seed=args.seed)
    write_coeff_file(args.out, field)
    return 0


def _cmd_norm(args) -> int:
    field = parse_coeff_file(args.input)
    _check_grid_size(args.grid_size, field.lattice.radius)
    value = hs_norm(field, SpaceIndex(float(args.s), float(args.p)), args.grid_size)
    _emit_record(
        {"s": float(args.s), "p": float(args.p), "norm": value}, args.format, sys.stdout
    )
    return 0


def _cmd_apply_j(args) -> int:
    field = parse_coeff_file(args.input)
    write_coeff_file(args.out, lift(float(args.s), field))
    return 0


def _cmd_pair(args) -> int:
    u = parse_coeff_file(args.input)
    v = parse_coeff_file(args.input2)
    value = duality_pair(u, v, float(args.s))
    _emit_record(
        {"s": float(args.s), "re": value.real, "im": value.imag}, args.format, sys.stdout
    )
    return 0


def _cmd_product(args) -> int:
    f = parse_coeff_file(args.input)
    u = parse_coeff_file(args.input2)
    write_coeff_file(args.out, pointwise_product(f, u, exact=args.exact_product))
    return 0


def _cmd_mult_norm(args) -> int:
    field = parse_coeff_file(args.input)
    radius = field.lattice.radius
    radii = [radius] if args.radii is None else args.radii
    if not radii or not all(0 <= r <= radius for r in radii):
        raise UsageError(f"--radii must list radii in [0, {radius}]; got {args.radii}")
    _check_grid_size(args.grid_size, max(radii))
    try:
        prob = MultiplierProblem(field, args.s, args.t, args.p, args.q)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report = equivalence_report(
        prob, radii=args.radii, force=args.force, grid_points=args.grid_size
    )
    if args.format == "json":
        record = report.as_dict()
    else:
        record = dict(zip(CSV_COLUMNS, report.csv_row()))
    _emit_record(record, args.format, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    try:
        ctx = VerifyContext(args.radius, args.n, args.seed, args.s, args.t, args.p)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    results = run_suite(args.suite, ctx)
    if args.format == "json":
        sys.stdout.write(
            json.dumps([result.__dict__ for result in results]) + "\n"
        )
    else:
        sys.stdout.write(format_report(results) + "\n")
    return 0 if all(result.passed for result in results) else 1


def _cmd_sweep(args) -> int:
    grids = (args.s_grid, args.t_grid, args.p_grid, args.q_grid, args.radius_grid)
    if any(len(grid) == 0 for grid in grids):
        raise UsageError("sweep grids must be nonempty")
    lattices = {radius: _lattice(args.n, radius) for radius in args.radius_grid}
    _check_grid_size(args.grid_size, max(args.radius_grid))
    fields = {
        radius: gen_distribution(args.u_kind, lattice, alpha=args.alpha, seed=args.seed)
        for radius, lattice in lattices.items()
    }
    points = list(itertools.product(*grids))
    try:  # every point is checked before the first solve
        problems = [MultiplierProblem(fields[r], s, t, p, q) for s, t, p, q, r in points]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = []
    refusals = 0
    for (s, t, p, q, radius), prob in zip(points, problems):
        try:
            report = equivalence_report(prob, force=args.force, grid_points=args.grid_size)
        except HypothesisError as exc:
            refusals += 1
            sys.stderr.write(
                f"warning: refused (s={s}, t={t}, p={p}, q={q}, R={radius}): {exc}\n"
            )
            cells = index_cells(args.n, radius, s, t, p, q)
            rows.append(cells + [""] * (len(CSV_COLUMNS) - len(cells)) + ["refused"])
        else:
            rows.append(report.csv_row() + ["ok"])
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(CSV_COLUMNS) + ["status"])
        writer.writerows(rows)
    if refusals:
        sys.stderr.write(f"warning: {refusals} grid point(s) refused by the hypothesis gate\n")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        return args.run(args)
    except (UsageError, CoeffFileError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        sys.stderr.write(f"error: out of memory: {str(exc) or 'allocation failed'}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
