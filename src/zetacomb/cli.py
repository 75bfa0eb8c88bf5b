"""Command-line front end: every experiment as a table.

Six subcommands map one-to-one onto the library surface: exact zeta
values (zeta), kernel sampling (kernel), delta-sequence convergence
(action), the two comb routes side by side (comb), partial sums against
closed forms (fourier), and the truncated sinc integral (sinc).  Only
the three that integrate take --tol: action (whose one kernel-integral
route is kernels._kernel_integral), comb and sinc.

Output is a single table in text, CSV, or JSON.  Formatting is fixed so
that identical invocations are byte-identical: floats print via repr
(shortest round-trip), exact values print as "num/den π^k", CSV is UTF-8
with LF endings, and JSON is one object {command, params, columns, rows}
with rows as arrays.  A handler returns only its columns and rows; run()
takes the params from the parsed options, so none is written twice.

Each invocation loads only the library modules its subcommand runs:
this module imports none at module level.  The library names it uses are
attributes of it all the same, resolved on first lookup (PEP 562) through
the package's table of public names, and the handlers call them through
this module, so a name patched here (by a test, or by perfbench/tracer.py)
is the one that runs.  zeta loads zeta_ladder and exactalg; sinc loads
quad; action loads actions, kernels, quad and testfn, and comb actions
and testfn; kernel loads kernels alone, and fourier actions and kernels.
QuadratureError, which exits 3, is defined in the package itself, so
catching it loads nothing.
The records are namedtuples, not dataclasses (which load inspect and
ast), json and csv are imported only for their own --format, and numpy
only by kernel and fourier grids of more than kernels._SCALAR_TERMS terms.

main(), the program's entry point, sets OPENBLAS_NUM_THREADS to 1 unless
the caller has set it, turns the cyclic garbage collector off for run()
and freezes the heap before exit, so a zetacomb process never runs a
collection: no library module, and not run(), touches the environment or
the collector, as tests and perfbench/tracer.py call run() in process.

Exit codes: 0 success, 2 usage error (argparse's own convention; also an
argument the library rejects with ValueError or OverflowError, work past a
cap or budget refused before it starts among them, and an --out path or a
stdout that cannot be written), 3 numerical failure (a quadrature or mode
sum that evaluated panels or nodes and cannot meet its tolerance, or an
oracle mismatch).
"""

import argparse
import importlib
import io
import math
import os
import re
import sys

_cli = sys.modules[__name__]
_package = sys.modules[__package__]

# The library names this module takes that the package does not export,
# and their modules.  Every other library name is resolved through the
# package's own table of public names.
_PRIVATE = {"_fourier_partial_sums": "actions", "SAMPLES_CAP": "kernels", "_uniform_grid": "kernels"}


def __getattr__(name):
    if name in _PRIVATE:
        value = getattr(importlib.import_module(f"{__package__}.{_PRIVATE[name]}"), name)
    elif name in _package.__all__:
        value = getattr(_package, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


__all__ = ["build_parser", "run", "main", "SAMPLES_CAP", "ZETA_MAX_K"]

# Largest accepted --max-k: 2k = 400 takes about 0.1 s with --oracle.
ZETA_MAX_K = 200


class _NumericalFailure(Exception):
    pass


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _int_in(least: int, cap: int | None = None):
    """An argparse type: an integer >= least and, given a cap, <= cap."""

    def convert(text: str) -> int:
        value = _int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        if cap is not None and value > cap:
            raise argparse.ArgumentTypeError(f"must be <= {cap}, got {value}")
        return value

    return convert


def _samples(text: str) -> int:
    """The --samples type: an integer in [2, SAMPLES_CAP], the cap looked up
    here so that building the parser does not import kernels."""
    return _int_in(2, _cli.SAMPLES_CAP)(text)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _pos_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _n_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if not values or any(n < 0 for n in values):
        raise argparse.ArgumentTypeError(f"need non-negative integers, got {text!r}")
    return values


class _Parser(argparse.ArgumentParser):
    """Reads a token that is - and then a digit or ., as -1e-3, -.5 or -1,2, as
    a value, which its option's type then checks: no option starts that way,
    and argparse's own rule, on some Pythons, takes only -1 and -1.5."""

    def _parse_optional(self, arg_string):
        if re.match("-[0-9.]", arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zetacomb",
        description="Exact even zeta values and kernel/action verification tables.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, tol: bool = False) -> None:
        p.add_argument(
            "--format", choices=("csv", "json", "text"), default="text",
            help="output format (default: text)",
        )
        p.add_argument("--out", metavar="PATH", help="write to PATH instead of stdout")
        if tol:
            p.add_argument(
                "--tol", type=_pos_float, default=1e-10,
                help="quadrature tolerance (default: 1e-10)",
            )

    p = sub.add_parser("zeta", help="exact zeta(2k) as rational multiples of pi^2k")
    p.add_argument("--max-k", type=_int_in(1, ZETA_MAX_K), required=True, metavar="K",
                   help=f"emit rows for 2k = 2..2K, K <= {ZETA_MAX_K}")
    p.add_argument("--oracle", action="store_true",
                   help="add the Bernoulli-formula column; values must match")
    common(p)

    p = sub.add_parser("kernel", help="sample the order-N kernel in both forms")
    p.add_argument("--n", type=_int_in(0), required=True, metavar="N")
    p.add_argument("--samples", type=_samples, default=2001, metavar="M")
    p.add_argument("--xmin", type=_finite_float, default=-math.pi)
    p.add_argument("--xmax", type=_finite_float, default=math.pi)
    common(p)

    def phi_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--phi", choices=("plateau", "gauss"), default="plateau",
                       help="test function family (default: plateau)")
        p.add_argument("--center", type=_finite_float, default=None,
                       help="gauss only: bump center (default 0)")
        p.add_argument("--radius", type=_pos_float, default=None,
                       help="gauss only: bump radius (default 1)")

    p = sub.add_parser("action", help="kernel action vs 2*pi*phi(0) over a list of N")
    phi_args(p)
    p.add_argument("--n-list", type=_n_list, required=True, metavar="N1,N2,...")
    common(p, tol=True)

    p = sub.add_parser("comb", help="partial action vs lattice sum at one N")
    phi_args(p)
    p.add_argument("--n", type=_int_in(0), required=True, metavar="N")
    common(p, tol=True)

    p = sub.add_parser("fourier", help="partial sum vs closed form on a grid")
    p.add_argument("--order", type=int, choices=(1, 2), required=True)
    p.add_argument("--n", type=_int_in(1), required=True, metavar="N")
    p.add_argument("--samples", type=_samples, required=True, metavar="M")
    p.add_argument("--xmin", type=_finite_float, required=True)
    p.add_argument("--xmax", type=_finite_float, required=True)
    common(p)

    p = sub.add_parser("sinc", help="truncated sinc integral for N = 0..n_max")
    p.add_argument("--n-max", type=_int_in(0), required=True, metavar="N")
    common(p, tol=True)

    return parser


def _build_phi(args: argparse.Namespace) -> "TestFunction":
    """The test function that --phi, --center and --radius name; a gauss bump's
    unset center and radius go into args as 0.0 and 1.0, which the params name."""
    if args.phi == "plateau":
        if args.center is not None or args.radius is not None:
            raise ValueError("--center/--radius apply only to --phi gauss")
        return _cli.bump_plateau(math.pi, 1.5 * math.pi)
    args.center = 0.0 if args.center is None else args.center
    args.radius = 1.0 if args.radius is None else args.radius
    return _cli.gaussian_bump(args.center, args.radius)


def _cmd_zeta(args):
    columns = ["two_k", "zeta"]
    if args.oracle:
        columns.append("bernoulli")
    rows = []
    for k in range(1, args.max_k + 1):
        two_k = 2 * k
        value = _cli.zeta_even(two_k)
        row = [two_k, str(value)]
        if args.oracle:
            oracle = _cli.bernoulli_oracle(two_k)
            if oracle.value != value.value:
                raise _NumericalFailure(
                    f"ladder and Bernoulli oracle disagree at 2k={two_k}"
                )
            row.append(str(oracle))
        rows.append(row)
    return columns, rows


def _cmd_kernel(args):
    table = _cli.kernel_samples(args.n, args.samples, args.xmin, args.xmax)
    rows = [[x, values[0], values[1]] for x, values in table.rows]
    return list(table.column_names), rows


def _cmd_action(args):
    phi = _build_phi(args)
    reference = 2.0 * math.pi * phi(0.0)
    rows = []
    for N in args.n_list:
        value = _cli.deltaN_action(phi, N, args.tol)
        rows.append([N, value, reference, abs(value - reference)])
    return ["N", "value", "reference", "abs_error"], rows


def _cmd_comb(args):
    phi = _build_phi(args)
    partial = _cli.delta0_partial_action(phi, args.n, args.tol)
    comb = _cli.delta0_comb_action(phi)
    rows = [[args.n, partial, comb, abs(partial - comb)]]
    return ["N", "partial_action", "comb_action", "abs_diff"], rows


def _cmd_fourier(args):
    closed = _cli.delta1_closed if args.order == 1 else _cli.delta2_closed
    xs = _cli._uniform_grid(args.xmin, args.xmax, args.samples)
    # The closed forms are cheap, so they refuse an x before the sums start.
    closed_forms = [closed(x) for x in xs]
    sums = _cli._fourier_partial_sums(args.order, args.n, xs)
    rows = [[x, p, c, abs(p - c)] for x, p, c in zip(xs, sums, closed_forms)]
    return ["x", "partial_sum", "closed_form", "abs_error"], rows


def _cmd_sinc(args):
    rows = [
        [N, result.value, abs(result.value - math.pi)]
        for N, result in enumerate(_cli.sinc_table(args.n_max, args.tol))
    ]
    return ["N", "value", "abs_error_vs_pi"], rows


_HANDLERS = {
    "zeta": _cmd_zeta,
    "kernel": _cmd_kernel,
    "action": _cmd_action,
    "comb": _cmd_comb,
    "fourier": _cmd_fourier,
    "sinc": _cmd_sinc,
}


def _render(command: str, params: dict, columns: list, rows: list, fmt: str) -> str:
    if fmt == "json":
        import json

        payload = {"command": command, "params": params, "columns": columns, "rows": rows}
        return json.dumps(payload, ensure_ascii=False) + "\n"
    if fmt == "csv":
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return buffer.getvalue()
    cells = [columns] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(line[j]) for line in cells) for j in range(len(columns))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in cells
    ]
    return "\n".join(lines) + "\n"


def _usage_error(parser: argparse.ArgumentParser, exc: Exception) -> int:
    """Report exc the way argparse reports a bad argument; returns exit code 2."""
    parser.print_usage(sys.stderr)
    print(f"{parser.prog}: error: {exc}", file=sys.stderr)
    return 2


def run(argv=None) -> int:
    """Parse argv, dispatch, write the table; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        columns, rows = _HANDLERS[args.subcommand](args)
    except SystemExit as exc:
        # argparse has already printed the diagnostic and usage synopsis
        return exc.code if isinstance(exc.code, int) else 2
    except (_NumericalFailure, _package.QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError) as exc:
        # an argument that parses but that the library rejects
        return _usage_error(parser, exc)
    # The parsed options in the parser's order, less the output's own and any left unset.
    params = {
        key: value for key, value in vars(args).items()
        if value is not None and key not in ("subcommand", "format", "out")
    }
    text = _render(args.subcommand, params, columns, rows, args.format)
    try:
        if args.out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
    except OSError as exc:
        if args.out is None:
            # stdout's unwritten bytes would fail again in the flush at exit: send them to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return 2  # the reader closed the pipe, as `| head` does: no error to report
        return _usage_error(parser, exc)
    return 0


def main() -> None:
    # The library calls no BLAS routine, but importing numpy starts
    # OpenBLAS's thread pool, whose threads spin on the CPUs that the
    # Fourier partial sums' second worker needs.  A value the user set is
    # kept; other BLAS builds ignore the variable.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # An op's data is acyclic or bounded by the work caps, so reference
    # counting frees it, and a cyclic collection would only walk the
    # imported modules' objects: disable it for the run, then freeze
    # everything left, so the full passes of interpreter shutdown find
    # nothing to walk.
    import gc

    gc.disable()
    code = run()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
