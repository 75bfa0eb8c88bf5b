"""Seeded op generators for the three benchmark workloads.

An op is one ``zetacomb`` invocation, described by a small dict (its
"spec") from which :func:`argv` builds the command line.  Each workload is
a sequence of *cycles*; a cycle is a fixed list of strata, and every
stratum draws its sizes from its own narrow range.  Settings with a few
levels (tolerance, radius band, sample band) rotate over the strata from
cycle to cycle.  This keeps the input mix the same from run to run, so that
runs with different seeds differ only in the jitter inside each stratum.

The stream of cycles is a pure function of (workload, seed): the same seed
gives the same argv list.
"""

import itertools
import math
import random

WORKLOADS = ("exact", "integrals", "series")
FORMATS = ("text", "csv", "json")
TOLS = (1e-10, 1e-11, 1e-12)

# The mode route of `comb` runs each of its 2N+1 mode integrals at
# tol/(2N+1).  Below about 1e-14 per mode the quadrature cannot reach the
# tolerance (its own error floor is 50*eps times the integral of |phi|), and
# such ops spend 10 to 15 s before exiting 3.  They are left out until the
# library fails fast on unreachable tolerances; see README.md, "Known gap".
_MODE_TOL_FLOOR = 1e-14


def _log_uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


# Radius bands of the Gauss bump and sample-count bands of `kernel`; like
# the tolerances, they rotate over the strata from cycle to cycle, so that
# every few cycles hold the same mix whatever the seed.
RADIUS_BANDS = ((0.5, 1.2), (1.2, 3.0), (3.0, 7.0))
SAMPLE_BANDS = ((201, 700), (700, 1300), (1300, 2001))


def _rotate(bands, cycle: int, stratum: int):
    return bands[(cycle + stratum) % len(bands)]


def _gauss_params(rng: random.Random, band) -> dict:
    return {
        "phi": "gauss",
        "center": round(rng.uniform(-1.0, 1.0), 3),
        "radius": round(math.exp(rng.uniform(math.log(band[0]), math.log(band[1]))), 3),
    }


def _phi_mass(phi: dict) -> float:
    """Upper bound on the integral of |phi|: peak value times support width."""
    if phi["phi"] == "plateau":
        return 3.0 * math.pi
    return math.exp(-1.0) * 2.0 * phi["radius"]


def _comb_tol(tol: float, n: int, phi: dict) -> float:
    """tol, or the loosest tolerance when tol is below the mode floor."""
    return tol if tol / (2 * n + 1) >= _MODE_TOL_FLOOR * _phi_mass(phi) else max(TOLS)


def _exact_cycle(rng: random.Random, cycle: int) -> list:
    # Eight narrow K bands spanning 2..60; every other band adds --oracle.
    bands = ((2, 4), (5, 9), (10, 16), (17, 25), (26, 35), (36, 45), (46, 53), (54, 60))
    return [
        {"cmd": "zeta", "max_k": rng.randint(lo, hi), "oracle": i % 2 == 1}
        for i, (lo, hi) in enumerate(bands)
    ]


def _n_list(rng: random.Random) -> list:
    # One order from each band; the top band sets the op's cost and memory
    # (the quadrature heap grows with N), so it is kept narrow.
    return [_log_uniform_int(rng, lo, hi) for lo, hi in ((10, 100), (100, 1600), (12000, 16000))]


def _integrals_cycle(rng: random.Random, cycle: int) -> list:
    def tol(stratum):
        return _rotate(TOLS, cycle, stratum)

    def gauss(stratum):
        return _gauss_params(rng, _rotate(RADIUS_BANDS, cycle, stratum))

    ops = [
        {"cmd": "action", **gauss(0), "n_list": _n_list(rng), "tol": tol(0)},
        {"cmd": "action", "phi": "plateau", "n_list": _n_list(rng), "tol": tol(1)},
    ]
    for stratum, (phi, (lo, hi)) in enumerate((
        (gauss(2), (20, 40)),
        (gauss(3), (70, 120)),
        (gauss(4), (200, 300)),
        ({"phi": "plateau"}, (20, 40)),
        ({"phi": "plateau"}, (80, 120)),
    ), start=2):
        n = _log_uniform_int(rng, lo, hi)
        ops.append({"cmd": "comb", **phi, "n": n, "tol": _comb_tol(tol(stratum), n, phi)})
    for stratum, (lo, hi) in enumerate(((10, 30), (80, 150), (300, 400)), start=7):
        ops.append({"cmd": "sinc", "n_max": _log_uniform_int(rng, lo, hi), "tol": tol(stratum)})
    return ops


# Grid points times N for one `fourier` op: each grid point costs O(N) numpy
# work, so the sample count shrinks as N grows to keep ops near one second.
_FOURIER_WORK = (4.0e6, 5.0e6)


def _fourier_op(rng: random.Random, order: int, lo: int, hi: int) -> dict:
    n = _log_uniform_int(rng, lo, hi)
    samples = int(rng.uniform(*_FOURIER_WORK) / n)
    return {
        "cmd": "fourier",
        "order": order,
        "n": n,
        "samples": max(5, min(2001, samples)),
        "xmin": round(rng.uniform(-4 * math.pi, -0.1), 3),
        "xmax": round(rng.uniform(0.1, 4 * math.pi), 3),
    }


def _series_cycle(rng: random.Random, cycle: int) -> list:
    ops = [
        {"cmd": "kernel", "n": _log_uniform_int(rng, lo, hi),
         "samples": rng.randint(*_rotate(SAMPLE_BANDS, cycle, stratum))}
        for stratum, (lo, hi) in enumerate(((50, 150), (300, 900), (1500, 5000)))
    ]
    ops.append(_fourier_op(rng, 1, 1_000, 5_000))
    ops.append(_fourier_op(rng, 2, 1_000, 5_000))
    ops.append(_fourier_op(rng, 1, 10_000, 60_000))
    ops.append(_fourier_op(rng, 2, 100_000, 400_000))
    # At N >= 2**19 the partial sums fill whole numpy chunks, so every cycle
    # reaches the same peak memory.
    ops.append(_fourier_op(rng, 1 + cycle % 2, 600_000, 1_000_000))
    return ops


_CYCLES = {"exact": _exact_cycle, "integrals": _integrals_cycle, "series": _series_cycle}


def cycles(workload: str, seed: int):
    """Endless stream of cycles (lists of op specs) for one workload and seed.

    Output formats rotate through text, csv and json over the whole stream.
    """
    if workload not in _CYCLES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    for cycle in itertools.count():
        ops = _CYCLES[workload](rng, cycle)
        for op in ops:
            op["format"] = FORMATS[index % len(FORMATS)]
            index += 1
        yield ops


def argv(op: dict) -> list:
    """The ``zetacomb`` command line for one op spec."""
    cmd = op["cmd"]
    args = [cmd]
    if cmd == "zeta":
        args += ["--max-k", str(op["max_k"])]
        if op["oracle"]:
            args.append("--oracle")
    elif cmd == "kernel":
        args += ["--n", str(op["n"]), "--samples", str(op["samples"])]
    elif cmd in ("action", "comb"):
        args += ["--phi", op["phi"]]
        if op["phi"] == "gauss":
            args += ["--center", repr(op["center"]), "--radius", repr(op["radius"])]
        if cmd == "action":
            args += ["--n-list", ",".join(str(n) for n in op["n_list"])]
        else:
            args += ["--n", str(op["n"])]
    elif cmd == "fourier":
        args += [
            "--order", str(op["order"]), "--n", str(op["n"]),
            "--samples", str(op["samples"]),
            "--xmin", repr(op["xmin"]), "--xmax", repr(op["xmax"]),
        ]
    elif cmd == "sinc":
        args += ["--n-max", str(op["n_max"])]
    else:
        raise ValueError(f"unknown subcommand {cmd!r}")
    if "tol" in op:
        args += ["--tol", repr(op["tol"])]
    return args + ["--format", op["format"]]
