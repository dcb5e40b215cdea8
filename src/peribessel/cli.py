"""Command-line interface.

Subcommands: gen, norm, apply-j, pair, product, mult-norm, verify, sweep.
Numeric arguments accept fractions ("4/3") so conjugate-exponent boundaries
stay exact; a JSON config file may supply any flag (explicit flags win).
Exit codes: 0 success; 2 a refused input, in every subcommand; 1 a failed check,
a refused hypothesis or a computation that failed.  All randomized behavior is
a pure function of --seed, and identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from . import KINDS, SUITES

# Each subcommand imports the modules it runs, so a call loads only those, and
# one that computes nothing (``--help``, a usage error) loads no numpy.


class UsageError(ValueError):
    pass


def _numeric(text: str):
    """Parse a CLI number within the float range: '4/3' -> Fraction, '2' -> int, '1.5' -> float."""
    text = str(text).strip()
    if "/" in text:
        from fractions import Fraction
        try:
            value = Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    else:
        try:
            value = int(text)
        except ValueError:
            return float(text)
    if abs(value) > sys.float_info.max:  # float(value) would raise OverflowError
        raise ValueError(f"{text!r} exceeds the largest float")
    return value


def _numeric_list(text: str):
    return [_numeric(part) for part in str(text).split(",") if part.strip()]


def _int_list(text: str):
    return [int(part) for part in str(text).split(",") if part.strip()]


def _subcommand(sub, name: str, summary: str, run) -> argparse.ArgumentParser:
    """Add a subcommand parser whose ``args.run`` is ``run``."""
    parser = sub.add_parser(name, help=summary)
    parser.set_defaults(run=run)
    return parser


def _config_actions(parser) -> dict:
    """The actions of ``parser`` that a config file may set, by dest: every option
    but -h.  Positionals are not among them: the command line always supplies them."""
    return {
        action.dest: action for action in parser._actions
        if action.option_strings and action.dest != "help"
    }


def _config_value(value, action):
    """Convert a config value as its flag converts the same text on the command
    line, which cannot hold a NUL; a store_true flag takes only a JSON boolean."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ValueError("expected true or false")
        return value
    if value is None or isinstance(value, (bool, list, dict)):
        raise ValueError("expected a JSON string or number")
    if "\0" in str(value):
        raise ValueError("embedded null character")
    value = str(value) if action.type is None else action.type(str(value))
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise ValueError(f"invalid choice (choose from {choices})")
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
    gen.add_argument("--kind", choices=KINDS, required=True)
    gen.add_argument("--n", type=int, default=1, help="torus dimension")
    gen.add_argument("--radius", type=int, default=8, help="lattice radius R")
    gen.add_argument("--alpha", type=float, default=None, help="decay exponent for power-decay")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output coefficient file (JSON)")

    norm = _subcommand(sub, "norm", "H^s_p norm of a coefficient field", _cmd_norm)
    norm.add_argument("--input", required=True, help="coefficient file")
    norm.add_argument("--s", type=_numeric, default=0)
    norm.add_argument("--p", type=_numeric, default=2)
    norm.add_argument("--grid-size", type=int, default=None, help="quadrature points per axis")
    norm.add_argument("--format", choices=("json", "csv"), default="json")

    applyj = _subcommand(sub, "apply-j", "apply the lifting operator of order s", _cmd_apply_j)
    applyj.add_argument("--input", required=True)
    applyj.add_argument("--s", type=_numeric, default=0)
    applyj.add_argument("--out", required=True)

    pair = _subcommand(sub, "pair", "duality pairing of two coefficient fields", _cmd_pair)
    pair.add_argument("--input", required=True, help="first field (negative-order side)")
    pair.add_argument("--input2", required=True, help="second field (positive-order side)")
    pair.add_argument("--s", type=_numeric, default=0)
    pair.add_argument("--format", choices=("json", "csv"), default="json")

    product = _subcommand(sub, "product", "pointwise product of two fields", _cmd_product)
    product.add_argument("--input", required=True, help="smooth factor")
    product.add_argument("--input2", required=True, help="distribution factor")
    product.add_argument(
        "--exact-product",
        action="store_true",
        help="keep the full convolution on a radius-2R lattice instead of truncating",
    )
    product.add_argument("--out", required=True)

    mult = _subcommand(sub, "mult-norm", "multiplier norm vs intersection norm", _cmd_mult_norm)
    mult.add_argument("--input", required=True)
    mult.add_argument("--s", type=_numeric, default=1)
    mult.add_argument("--t", type=_numeric, default=1)
    mult.add_argument("--p", type=_numeric, default=2)
    mult.add_argument("--q", type=_numeric, default=2)
    mult.add_argument("--radii", type=_int_list, default=None, help="refinement radii, e.g. 4,8")
    mult.add_argument("--grid-size", type=int, default=None)
    mult.add_argument("--force", action="store_true", help="skip the index-hypothesis gate")
    mult.add_argument("--format", choices=("json", "csv"), default="json")

    verify = _subcommand(sub, "verify", "run a verification suite", _cmd_verify)
    verify.add_argument("suite", choices=SUITES + ("all",))
    verify.add_argument("--radius", type=int, default=8)
    verify.add_argument("--n", type=int, default=1)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--s", type=_numeric, default=1)
    verify.add_argument("--t", type=_numeric, default=1)
    verify.add_argument("--format", choices=("text", "json"), default="text")

    sweep = _subcommand(sub, "sweep", "multiplier-norm sweep over an index grid", _cmd_sweep)
    sweep.add_argument("--s-grid", type=_numeric_list, required=True, help="e.g. 1,1.5,2")
    sweep.add_argument("--t-grid", type=_numeric_list, required=True)
    sweep.add_argument("--p-grid", type=_numeric_list, required=True)
    sweep.add_argument("--q-grid", type=_numeric_list, required=True)
    sweep.add_argument("--radius-grid", type=_int_list, required=True)
    sweep.add_argument("--u-kind", choices=KINDS, default="power-decay")
    sweep.add_argument("--alpha", type=float, default=3.0)
    sweep.add_argument("--n", type=int, default=1)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--grid-size", type=int, default=None)
    sweep.add_argument("--force", action="store_true")
    sweep.add_argument("--out", required=True, help="output CSV path")

    return parser


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv.  With --config, first install the file's values as defaults of
    the subcommand being run, each as its flag takes it: flags win, a config value
    stands in for a required flag, and a refused value is reported once argv parses."""
    front = argparse.ArgumentParser(add_help=False)
    front.add_argument("--config", nargs="?")
    front.add_argument("command", nargs="?")
    known = front.parse_known_args(argv)[0]
    refused = None
    if known.config:
        with open(known.config, "r", encoding="utf-8") as handle:
            try:
                config = json.load(handle)
            except ValueError as exc:  # not JSON, or not UTF-8 text
                raise UsageError(str(exc)) from None
        if not isinstance(config, dict):
            raise UsageError("config file must hold a JSON object")
        registry = parser.subcommand_registry
        unknown = set(config).difference(*map(_config_actions, registry.values()))
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        subparser = registry.get(known.command)
        actions = _config_actions(subparser) if subparser else {}
        for key, value in config.items():
            if key in actions:
                actions[key].required = False
                try:
                    subparser.set_defaults(**{key: _config_value(value, actions[key])})
                except (TypeError, ValueError) as exc:
                    refused = refused or UsageError(f"config value {key}={value!r}: {exc}")
    args = parser.parse_args(argv)
    if refused:
        raise refused
    return args


def _emit_record(record: dict, fmt: str, stream):
    if fmt == "json":
        stream.write(json.dumps(record, allow_nan=False) + "\n")  # a non-finite value raises
    else:  # the csv module prints a float by repr
        import csv
        csv.writer(stream, lineterminator="\n").writerows([record.keys(), record.values()])


def _usage(build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError a usage error: a handler calls it
    only where every ValueError comes from the command's inputs."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_grid_size(grid_size, radius: int):
    """Refuse a ``--grid-size`` below 2R+1 for the largest radius R it samples."""
    if grid_size is not None and grid_size < 2 * radius + 1:
        raise UsageError(f"--grid-size {grid_size} is below 2R+1 = {2 * radius + 1}")


def _cmd_gen(args) -> int:
    from .coeffio import write_coeff_file
    from .generators import gen_distribution
    from .lattice import make_lattice
    if args.kind == "power-decay" and args.alpha is None:
        raise UsageError("--kind power-decay requires --alpha")
    lattice = _usage(make_lattice, args.n, args.radius)
    field = _usage(gen_distribution, args.kind, lattice, alpha=args.alpha, seed=args.seed)
    write_coeff_file(args.out, field)
    return 0


def _cmd_norm(args) -> int:
    from .calculus import SpaceIndex, hs_norm
    from .coeffio import parse_coeff_file
    field = _usage(parse_coeff_file, args.input)
    _check_grid_size(args.grid_size, field.lattice.radius)
    index = _usage(SpaceIndex, float(args.s), float(args.p))
    value = _usage(hs_norm, field, index, args.grid_size)
    _emit_record({"s": index.s, "p": index.p, "norm": value}, args.format, sys.stdout)
    return 0


def _cmd_apply_j(args) -> int:
    from .calculus import lift
    from .coeffio import parse_coeff_file, write_coeff_file
    field = _usage(parse_coeff_file, args.input)
    write_coeff_file(args.out, _usage(lift, float(args.s), field))
    return 0


def _cmd_pair(args) -> int:
    from .calculus import duality_pair
    from .coeffio import parse_coeff_file
    u = _usage(parse_coeff_file, args.input)
    v = _usage(parse_coeff_file, args.input2)
    s = float(args.s)
    if not math.isfinite(s):  # the pairing does not depend on s: it is checked and echoed
        raise UsageError(f"smoothness index must be finite, got {s}")
    value = _usage(duality_pair, u, v)
    _emit_record({"s": s, "re": value.real, "im": value.imag}, args.format, sys.stdout)
    return 0


def _cmd_product(args) -> int:
    from .calculus import pointwise_product
    from .coeffio import parse_coeff_file, write_coeff_file
    f = _usage(parse_coeff_file, args.input)
    u = _usage(parse_coeff_file, args.input2)
    write_coeff_file(args.out, _usage(pointwise_product, f, u, exact=args.exact_product))
    return 0


def _cmd_mult_norm(args) -> int:
    from .coeffio import parse_coeff_file
    from .lattice import restrict_field
    from .multipliers import CSV_COLUMNS, MultiplierProblem, equivalence_report
    field = _usage(parse_coeff_file, args.input)
    radius = field.lattice.radius
    radii = [radius] if args.radii is None else args.radii
    if not radii or not all(0 <= r <= radius for r in radii):
        raise UsageError(f"--radii must list radii in [0, {radius}]; got {args.radii}")
    _check_grid_size(args.grid_size, max(radii))
    top = restrict_field(field, max(radii))  # a radius --radii never reaches sets no grid
    prob = _usage(MultiplierProblem, top, args.s, args.t, args.p, args.q, args.grid_size)
    if not top.coeffs.any():  # refused here, before the hypothesis gate
        raise UsageError("multiplier field is identically zero")
    report = equivalence_report(prob, radii=args.radii, force=args.force)
    if args.format == "json":
        record = report.as_dict()
    else:
        record = dict(zip(CSV_COLUMNS, report.csv_row()))
    _emit_record(record, args.format, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    from .verify import VerifyContext, format_report, run_suite
    ctx = _usage(VerifyContext, args.radius, args.n, args.seed, args.s, args.t)
    results = run_suite(args.suite, ctx)
    if args.format == "json":
        sys.stdout.write(json.dumps([result.__dict__ for result in results]) + "\n")
    else:
        sys.stdout.write(format_report(results) + "\n")
    return 0 if all(result.passed for result in results) else 1


def _cmd_sweep(args) -> int:
    import csv
    from .generators import gen_distribution
    from .lattice import make_lattice
    from .multipliers import CSV_COLUMNS, HypothesisError, MultiplierProblem, equivalence_report
    grids = (args.s_grid, args.t_grid, args.p_grid, args.q_grid, args.radius_grid)
    if any(len(grid) == 0 for grid in grids):
        raise UsageError("sweep grids must be nonempty")
    lattices = {radius: _usage(make_lattice, args.n, radius) for radius in args.radius_grid}
    _check_grid_size(args.grid_size, max(args.radius_grid))
    fields = {
        radius: _usage(gen_distribution, args.u_kind, lattice, alpha=args.alpha, seed=args.seed)
        for radius, lattice in lattices.items()
    }
    points = list(itertools.product(*grids))
    # every point is checked before the first solve
    problems = [_usage(MultiplierProblem, fields[r], s, t, p, q, args.grid_size)
                for s, t, p, q, r in points]
    rows = []
    refusals = 0
    for (s, t, p, q, radius), prob in zip(points, problems):
        try:
            report = equivalence_report(prob, force=args.force)
        except HypothesisError as exc:
            refusals += 1
            sys.stderr.write(
                f"warning: refused (s={s}, t={t}, p={p}, q={q}, R={radius}): {exc}\n"
            )
            row = [args.n, radius, *map(float, (s, t, p, q))]
            rows.append(row + [""] * (len(CSV_COLUMNS) - len(row)) + ["refused"])
        else:
            rows.append(report.csv_row() + ["ok"])
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows([[*CSV_COLUMNS, "status"], *rows])
    if refusals:
        sys.stderr.write(f"warning: {refusals} grid point(s) refused by the hypothesis gate\n")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        return args.run(args)
    except (UsageError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, RuntimeError, FloatingPointError) as exc:  # the last: np.errstate overflow
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        sys.stderr.write(f"error: out of memory: {str(exc) or 'allocation failed'}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
