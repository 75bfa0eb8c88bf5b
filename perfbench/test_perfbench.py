"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest

import check
import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

from zetacomb import cli  # noqa: E402

TWO_PI_OVER_E = 2.3114546995818435


def _argvs(workload, seed, n_cycles=3):
    stream = workloads.cycles(workload, seed)
    return [workloads.argv(op) for _ in range(n_cycles) for op in next(stream)]


def _cli_output(spec) -> str:
    buffer = StringIO()
    with redirect_stdout(buffer):
        assert cli.run(workloads.argv(spec)) == 0
    return buffer.getvalue()


# -- inputs --------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_argv_list(workload):
    assert _argvs(workload, 7) == _argvs(workload, 7)
    assert _argvs(workload, 7) != _argvs(workload, 8)


def test_generated_argv_parses():
    parser = cli.build_parser()
    for workload in workloads.WORKLOADS:
        for args in _argvs(workload, 1):
            parser.parse_args(args)


# -- checker -------------------------------------------------------------------

ZETA_CSV = "two_k,zeta\n2,1/6 π^2\n4,1/90 π^4\n6,1/945 π^6\n"
ZETA_OP = {"cmd": "zeta", "max_k": 3, "oracle": False, "format": "csv"}


def test_checker_accepts_known_zeta_values():
    assert check.check_output(ZETA_OP, ZETA_CSV) == 3
    assert check.zeta_coefficient(12, check._bernoulli_table(120)) == Fraction(691, 638512875)


def test_checker_rejects_corrupted_zeta_fraction():
    with pytest.raises(check.CheckFailed):
        check.check_output(ZETA_OP, ZETA_CSV.replace("1/945", "1/946"))
    with pytest.raises(check.CheckFailed):
        check.check_output(ZETA_OP, ZETA_CSV.replace("π^6", "π^5"))


def _fourier_table(n, xs, offset):
    lines = ["x,partial_sum,closed_form,abs_error"]
    for x in xs:
        closed = check.closed_form(2, x)
        partial = closed + offset
        lines.append(f"{x!r},{partial!r},{closed!r},{abs(partial - closed)!r}")
    return "\n".join(lines) + "\n"


def test_checker_rejects_float_outside_bound():
    op = {"cmd": "fourier", "order": 2, "n": 10, "samples": 3, "xmin": -1.0, "xmax": 1.0, "format": "csv"}
    xs = [-1.0, 0.0, 1.0]
    assert check.check_output(op, _fourier_table(10, xs, 0.15)) == 3  # within 2/N = 0.2
    with pytest.raises(check.CheckFailed):
        check.check_output(op, _fourier_table(10, xs, 0.25))


@pytest.mark.parametrize("spec", [
    {"cmd": "zeta", "max_k": 6, "oracle": True},
    {"cmd": "kernel", "n": 50, "samples": 201},
    {"cmd": "action", "phi": "gauss", "center": 0.25, "radius": 3.5, "n_list": [10, 200], "tol": 1e-10},
    {"cmd": "action", "phi": "plateau", "n_list": [30], "tol": 1e-11},
    {"cmd": "comb", "phi": "gauss", "center": -0.5, "radius": 0.7, "n": 20, "tol": 1e-10},
    {"cmd": "comb", "phi": "plateau", "n": 25, "tol": 1e-10},
    {"cmd": "fourier", "order": 1, "n": 1000, "samples": 51, "xmin": -7.0, "xmax": 9.0},
    {"cmd": "fourier", "order": 2, "n": 500, "samples": 51, "xmin": -12.0, "xmax": 3.0},
    {"cmd": "sinc", "n_max": 12, "tol": 1e-11},
])
@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_checker_accepts_library_output(spec, fmt):
    spec = {**spec, "format": fmt}
    check.check_output(spec, _cli_output(spec))


def test_checker_rejects_perturbed_integral():
    spec = {"cmd": "comb", "phi": "gauss", "center": 0.0, "radius": 1.0, "n": 40, "tol": 1e-10, "format": "json"}
    payload = json.loads(_cli_output(spec))
    check.check_output(spec, json.dumps(payload))
    n, partial, comb, _ = payload["rows"][0]
    partial += 1e-8
    payload["rows"][0] = [n, partial, comb, abs(partial - comb)]
    with pytest.raises(check.CheckFailed):
        check.check_output(spec, json.dumps(payload))


def test_references_match_acceptance_criteria():
    phi = check.Phi({"phi": "gauss", "center": 0.0, "radius": 1.0})
    assert abs(check.partial_action_reference(phi, 200) - TWO_PI_OVER_E) < 1e-6  # criterion 8
    assert abs(check.comb_reference(phi) - TWO_PI_OVER_E) < 1e-15
    assert abs(check.action_reference(phi, 500) - TWO_PI_OVER_E) < 1e-3  # criterion 7
    sinc = check.sinc_references(2)
    assert sinc[0] < math.pi < sinc[1] and sinc[2] < math.pi  # criterion 11


# -- tracing -------------------------------------------------------------------

SMALL_OPS = {
    "exact": [{"cmd": "zeta", "max_k": 3, "oracle": True, "format": "text"}],
    "integrals": [
        {"cmd": "action", "phi": "gauss", "center": 0.0, "radius": 1.0, "n_list": [10], "tol": 1e-10, "format": "csv"},
        {"cmd": "comb", "phi": "plateau", "n": 20, "tol": 1e-10, "format": "json"},
        {"cmd": "sinc", "n_max": 3, "tol": 1e-10, "format": "text"},
    ],
    "series": [
        {"cmd": "kernel", "n": 50, "samples": 21, "format": "csv"},
        {"cmd": "fourier", "order": 2, "n": 1000, "samples": 5, "xmin": -1.0, "xmax": 2.0, "format": "json"},
    ],
}


def _traced_metrics(workload):
    env = run.child_env()
    traced = run.run_ops(SMALL_OPS[workload], env, True, run.HostPace())
    assert not [op.problem for op in traced if op.problem]
    metrics, _, missing = run.layer_metrics(traced, 1.0)
    assert missing == []
    return {name: value for name, (value, _) in metrics.items()}


@pytest.fixture(scope="module")
def traced():
    return {workload: _traced_metrics(workload) for workload in workloads.WORKLOADS}


def test_counts_that_should_be_zero_read_zero(traced):
    exact, integrals, series = traced["exact"], traced["integrals"], traced["series"]
    for name in ("quad.calls", "quad.panels", "quad.integrand_evals", "quad.failures", "quad.self_s"):
        assert exact[name] == 0
    assert integrals["zeta_ladder.orders"] == 0
    assert series["zeta_ladder.orders"] == 0
    assert series["quad.calls"] == 0


def test_traced_counts_where_work_happens(traced):
    exact, integrals, series = traced["exact"], traced["integrals"], traced["series"]
    assert exact["zeta_ladder.orders"] == 5  # ladder_step calls for orders 2..6
    assert exact["zeta_ladder.bernoulli_calls"] == 3
    assert exact["exactalg.calls"] > 0
    assert integrals["quad.calls"] == 1 + 21 + 4  # one action, N+1 cosine modes, n_max+1 sinc integrals
    assert integrals["actions.modes"] == 21
    assert integrals["testfn.evals"] > 0 and integrals["kernels.evals"] > 0
    assert series["kernels.sum_terms"] >= 50 * 21
    assert series["actions.series_terms"] == 1000 * 5
    assert series["cli.rows"] == 21 + 5


def test_traced_counts_repeat_exactly(traced):
    again = _traced_metrics("integrals")
    for name in ("quad.calls", "quad.panels", "quad.integrand_evals", "testfn.evals", "kernels.evals",
                 "actions.modes", "cli.rows", "cli.bytes_out"):
        assert again[name] == traced["integrals"][name]


def test_missing_entry_points_are_reported_not_fatal(tmp_path, monkeypatch):
    package = tmp_path / "slimlib"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def zeta_even(two_k):\n    return two_k\n")
    (package / "exactalg.py").write_text("")
    monkeypatch.syspath_prepend(str(tmp_path))
    trace = tracer.Tracer()
    modules = tracer.install(trace, package="slimlib")
    assert modules["cli"].zeta_even(4) == 4
    assert trace.inclusive["zeta_even"] > 0
    assert "quad" in trace.missing
    assert "cli.kernel_samples" in trace.missing
    assert "exactalg.PiPolynomial.mean" in trace.missing


def test_tracer_loads_nothing_before_the_timed_import():
    # cli.import_s must pay for every module the library imports, so loading
    # tracer.py may add nothing to a bare interpreter's modules.
    probe = (
        "import sys; before = set(sys.modules); "
        f"sys.path.insert(0, {str(run.HERE)!r}); import tracer; "
        "print(sorted(set(sys.modules) - before - {'tracer'}))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# -- run.py ----------------------------------------------------------------------

def test_tail_is_p75_by_nearest_rank():
    assert run.tail([float(i) for i in range(40)]) == (29.0, 10)
    assert run.tail([3.0, 1.0]) == (3.0, 0)


def test_run_prints_result_line():
    result = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "exact", "--seed", "2", "--seconds", "1"],
        capture_output=True, text=True, timeout=180,
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] and payload["failed"] == 0
    assert set(payload["metrics"]) == {"setup_s", "ops_per_s", "op_s.p50", "op_s.tail", "rss_peak_mb"}


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert result.returncode != 0
    assert result.stdout == ""
