"""Output checks that do not use the code under test.

Every table is parsed from the text the CLI printed (text, csv or json) and
compared with values this module derives on its own:

* ``zeta``: exact fractions from Bernoulli numbers computed here by the
  Akiyama-Tanigawa recurrence (the library uses another recurrence).
* ``action``, ``comb``, ``sinc``: the integrals recomputed with a fixed
  Gauss-Legendre panel rule in numpy (the library uses adaptive G7/K15),
  plus the lattice sum and the bounds of tests/test_acceptance.py.
* ``kernel``, ``fourier``: the compact kernel formula and the floor/ceiling
  closed forms evaluated here, with the acceptance-test bounds: forms within
  1e-10*(2N+1), peak exactly 2N+1, order-2 error at most 2/N, order-1 error
  inside the Abel-summation tail bound (at N=1e5 and 0.3 from the lattice
  that bound is below the 1e-4 of criterion 10).

Floats are compared within bounds, never byte for byte, so a one-ulp change
in numpy or libm is not a failure.
"""

import csv
import io
import json
import math
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

# Distance allowed between a library integral and the reference integral,
# in units of the op's --tol: the library promises an error below tol, and
# the reference agrees with it to about 1e-13.
TOL_FACTOR = 10.0

_COLUMNS = {
    "zeta": ["two_k", "zeta"],
    "kernel": ["x", "sum_form", "compact_form"],
    "action": ["N", "value", "reference", "abs_error"],
    "comb": ["N", "partial_action", "comb_action", "abs_diff"],
    "fourier": ["x", "partial_sum", "closed_form", "abs_error"],
    "sinc": ["N", "value", "abs_error_vs_pi"],
}


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- parsing -----------------------------------------------------------------

def parse_table(fmt: str, command: str, text: str):
    """(columns, rows) from CLI output; cells stay as printed (str or number)."""
    if fmt == "json":
        payload = json.loads(text)
        _require(payload.get("command") == command, f"json command is {payload.get('command')!r}")
        return payload["columns"], payload["rows"]
    if fmt == "csv":
        lines = list(csv.reader(io.StringIO(text)))
    else:
        # Text cells are separated by at least two spaces; a cell such as
        # "1/6 π^2" holds single spaces only.
        lines = [re.split(r" {2,}", line) for line in text.split("\n") if line]
    _require(bool(lines), "empty output")
    return lines[0], lines[1:]


# -- independent references ----------------------------------------------------

@lru_cache(maxsize=None)
def _bernoulli_table(n_max: int) -> tuple:
    """B_0..B_n_max by the Akiyama-Tanigawa algorithm (B_1 = +1/2)."""
    a = []
    out = []
    for m in range(n_max + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return tuple(out)


def zeta_coefficient(two_k: int, table: tuple) -> Fraction:
    """r with zeta(2k) = r * pi^2k, r = |B_2k| (2)^2k / (2 (2k)!)."""
    return abs(table[two_k]) * Fraction(2**two_k, 2 * math.factorial(two_k))


def _smooth_step(t):
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        g = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
        g1 = np.where(t < 1, np.exp(-1.0 / np.where(t < 1, 1.0 - t, 1.0)), 0.0)
    return g / (g + g1)


class Phi:
    """The CLI's test functions, re-implemented in numpy."""

    def __init__(self, op: dict):
        self.kind = op["phi"]
        if self.kind == "gauss":
            self.center = op["center"]
            self.radius = op["radius"]
            self.support = (self.center - self.radius, self.center + self.radius)
            self.edges = self.support
        else:
            self.support = (-1.5 * math.pi, 1.5 * math.pi)
            self.edges = (-1.5 * math.pi, -math.pi, math.pi, 1.5 * math.pi)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "gauss":
            u2 = ((x - self.center) / self.radius) ** 2
            inside = u2 < 1.0
            return np.where(inside, np.exp(-1.0 / (1.0 - np.where(inside, u2, 0.0))), 0.0)
        r = np.abs(x)
        return np.where(r <= math.pi, 1.0, _smooth_step((1.5 * math.pi - r) / (0.5 * math.pi)))

    def periodized(self, x):
        lo, hi = self.support
        shifts = range(math.floor((lo - math.pi) / TWO_PI), math.ceil((hi + math.pi) / TWO_PI) + 1)
        return sum(self(x + TWO_PI * k) for k in shifts)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def gl_integral(f, breaks, max_width: float) -> float:
    """Integral of f over [breaks[0], breaks[-1]] by 20-point Gauss-Legendre
    on panels no wider than max_width, never straddling a breakpoint."""
    total = []
    breaks = sorted(set(breaks))
    for a, b in zip(breaks, breaks[1:]):
        panels = max(1, math.ceil((b - a) / max_width))
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * np.diff(edges)[:, None]
        x = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * _GL_NODES
        total.append(float(np.sum(half * _GL_WEIGHTS * f(x))))
    return math.fsum(total)


def dirichlet(n: int, x):
    s = np.sin(0.5 * x)
    safe = np.where(s == 0.0, 1.0, s)
    return np.where(s == 0.0, 2.0 * n + 1.0, np.sin((n + 0.5) * x) / safe)


def _kernel_breaks(edges, lo: float, hi: float) -> list:
    return [lo, hi] + [e for e in (0.0, *edges) if lo < e < hi]


def action_reference(phi: Phi, n: int) -> float:
    """Integral of delta_N * phi over [-pi, pi] clipped to the support."""
    lo = max(-math.pi, phi.support[0])
    hi = min(math.pi, phi.support[1])
    if not lo < hi:
        return 0.0
    width = min(math.pi / (n + 1), 0.02)
    return gl_integral(lambda x: dirichlet(n, x) * phi(x), _kernel_breaks(phi.edges, lo, hi), width)


def partial_action_reference(phi: Phi, n: int) -> float:
    """sum_{|k|<=N} c_k = integral over [-pi, pi] of delta_N times the
    2*pi-periodization of phi."""
    edges = [e - TWO_PI * round(e / TWO_PI) for e in phi.edges]
    width = min(math.pi / (n + 1), 0.02)
    return gl_integral(
        lambda x: dirichlet(n, x) * phi.periodized(x),
        _kernel_breaks(edges, -math.pi, math.pi), width,
    )


def comb_reference(phi: Phi) -> float:
    lo, hi = phi.support
    points = [TWO_PI * k for k in range(math.ceil(lo / TWO_PI), math.floor(hi / TWO_PI) + 1)]
    return TWO_PI * math.fsum(phi(points).tolist()) if points else 0.0


def sinc_references(n_max: int) -> list:
    """Integral of sin(x)/x over [-(N+1/2)pi, (N+1/2)pi] for N = 0..n_max."""
    breaks = [0.0] + [(n + 0.5) * math.pi for n in range(n_max + 1)]
    pieces = [gl_integral(lambda x: np.sin(x) / x, [a, b], 0.5) for a, b in zip(breaks, breaks[1:])]
    return [2.0 * math.fsum(pieces[: n + 1]) for n in range(n_max + 1)]


def closed_form(order: int, x: float) -> float:
    u = x / TWO_PI
    fl, ce = math.floor(u), math.ceil(u)
    if order == 1:
        return math.pi * (fl + ce)
    return math.pi * x * (fl + ce) - 2.0 * math.pi**2 * (ce * fl) - math.pi**2 / 3.0


# -- per-command checks ------------------------------------------------------

def _close(a: float, b: float, bound: float) -> bool:
    return abs(a - b) <= bound


def _grid(xmin: float, xmax: float, count: int) -> list:
    step = (xmax - xmin) / (count - 1)
    return [xmin + i * step for i in range(count - 1)] + [xmax]


_PI_TERM = re.compile(r"(\d+)(?:/(\d+))? π\^(\d+)")


def _parse_pi_term(cell: str):
    match = _PI_TERM.fullmatch(cell)
    _require(match is not None, f"not a rational multiple of a pi power: {cell!r}")
    num, den, power = match.groups()
    return Fraction(int(num), int(den or 1)), int(power)


def _check_zeta(op, rows):
    _require(len(rows) == op["max_k"], f"{len(rows)} rows for --max-k {op['max_k']}")
    table = _bernoulli_table(max(120, 2 * op["max_k"]))
    for k, row in enumerate(rows, start=1):
        _require(int(row[0]) == 2 * k, f"row {k} has two_k {row[0]}")
        expected = (zeta_coefficient(2 * k, table), 2 * k)
        for cell in row[1:]:
            _require(_parse_pi_term(str(cell)) == expected,
                     f"zeta({2 * k}) printed as {cell!r}, expected {expected[0]} π^{2 * k}")


def _check_kernel(op, rows):
    n, count = op["n"], op["samples"]
    _require(len(rows) == count, f"{len(rows)} rows for --samples {count}")
    bound = 1e-10 * (2 * n + 1)
    for expected_x, row in zip(_grid(-math.pi, math.pi, count), rows):
        x, s, c = (float(v) for v in row)
        _require(_close(x, expected_x, 1e-12), f"grid point {x} != {expected_x}")
        exact = 0.0 if abs(x) >= math.pi else float(dirichlet(n, x))
        _require(_close(s, exact, bound) and _close(c, exact, bound),
                 f"kernel at x={x}: sum {s}, compact {c}, expected {exact}")
        if x == 0.0:
            _require(s == 2 * n + 1, f"peak {s} != 2N+1 = {2 * n + 1}")


def _check_action(op, rows):
    phi = Phi(op)
    reference = TWO_PI * float(phi(0.0))
    _require([int(r[0]) for r in rows] == op["n_list"], "N column does not match --n-list")
    for row in rows:
        n, value, ref, err = int(row[0]), float(row[1]), float(row[2]), float(row[3])
        _require(_close(ref, reference, 1e-12), f"reference {ref} != 2*pi*phi(0) = {reference}")
        _require(err == abs(value - ref), f"abs_error {err} != |value - reference|")
        expected = action_reference(phi, n)
        _require(_close(value, expected, TOL_FACTOR * op["tol"]),
                 f"action at N={n}: {value}, reference integral {expected}")


def _check_comb(op, rows):
    phi = Phi(op)
    _require(len(rows) == 1 and int(rows[0][0]) == op["n"], "expected one row for --n")
    partial, comb, diff = (float(v) for v in rows[0][1:])
    expected_comb = comb_reference(phi)
    _require(_close(comb, expected_comb, 1e-12 * max(1.0, abs(expected_comb))),
             f"comb_action {comb}, lattice sum {expected_comb}")
    _require(diff == abs(partial - comb), f"abs_diff {diff} != |partial - comb|")
    expected = partial_action_reference(phi, op["n"])
    _require(_close(partial, expected, TOL_FACTOR * op["tol"]),
             f"partial action {partial}, reference integral {expected}")


def _check_fourier(op, rows):
    n, order = op["n"], op["order"]
    _require(len(rows) == op["samples"], f"{len(rows)} rows for --samples {op['samples']}")
    for expected_x, row in zip(_grid(op["xmin"], op["xmax"], op["samples"]), rows):
        x, partial, closed, err = (float(v) for v in row)
        _require(_close(x, expected_x, 1e-12 * (1.0 + abs(x))), f"grid point {x} != {expected_x}")
        exact = closed_form(order, x)
        _require(_close(closed, exact, 1e-12 * (1.0 + x * x)), f"closed form {closed} != {exact} at x={x}")
        _require(err == abs(partial - closed), f"abs_error {err} != |partial - closed| at x={x}")
        if order == 2:
            # criterion 9: the tail of sum cos(nx)/n^2 beyond N is below 1/N
            bound = 2.0 / n
        else:
            # |sum_{k>N} sin(kx)/k| <= 1/((N+1)|sin(x/2)|), and the error
            # never exceeds the Gibbs-limited jump of the sawtooth
            s = abs(math.sin(0.5 * x))
            bound = min(2.0 / ((n + 1) * s) if s else math.inf, 1.3 * math.pi) + 1e-8
        _require(err <= bound, f"order-{order} error {err} above {bound} at x={x}, N={n}")


def _check_sinc(op, rows):
    _require([int(r[0]) for r in rows] == list(range(op["n_max"] + 1)), "N column is not 0..n_max")
    for row, expected in zip(rows, sinc_references(op["n_max"])):
        n, value, err = int(row[0]), float(row[1]), float(row[2])
        _require(err == abs(value - math.pi), f"abs_error_vs_pi {err} != |value - pi|")
        # criterion 11: alternation around pi and the 2/((N+1/2)pi) bound
        _require((value > math.pi) == (n % 2 == 1), f"N={n}: {value} on the wrong side of pi")
        _require(err <= 2.0 / ((n + 0.5) * math.pi), f"N={n}: error {err} above bound")
        _require(_close(value, expected, TOL_FACTOR * op["tol"]), f"N={n}: {value}, reference {expected}")


_CHECKS = {
    "zeta": _check_zeta,
    "kernel": _check_kernel,
    "action": _check_action,
    "comb": _check_comb,
    "fourier": _check_fourier,
    "sinc": _check_sinc,
}


def check_output(op: dict, text: str) -> int:
    """Raise CheckFailed unless text is a correct table for op; return its row count."""
    try:
        columns, rows = parse_table(op["format"], op["cmd"], text)
        expected = _COLUMNS[op["cmd"]] + (["bernoulli"] if op.get("oracle") else [])
        _require(list(columns) == expected, f"columns {columns}, expected {expected}")
        _require(all(len(row) == len(columns) for row in rows), "ragged table")
        _CHECKS[op["cmd"]](op, rows)
    except (ValueError, TypeError, IndexError, KeyError) as exc:
        raise CheckFailed(f"malformed table: {exc!r}") from exc
    return len(rows)
