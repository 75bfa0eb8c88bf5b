"""zetacomb benchmark: CLI ops in fresh interpreters, checked and measured.

    python3 perfbench/run.py --workload {exact,integrals,series,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is taken from ``src/`` next to this
directory.  Every op is one ``python -m zetacomb.cli <argv>`` process, so
interpreter start, imports and cold ladder caches are paid the way a user
pays them.  One client runs the ops back to back (a closed loop): at most
two processes exist at a time, this one and one op.

--trace 0 (default) prints the end-to-end metrics; --trace 1 runs the first
cycle of ops twice, plain and under perfbench/tracer.py, and prints the
per-layer metrics.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md for the workloads.
"""

import argparse
import json
import math
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
# setup_s is the median of SETUP_SPAWNS spawns before the first op plus one
# after every half cycle, so that its samples spread over the whole run.
SETUP_SPAWNS = 3
# A run ends at the first cycle boundary after --seconds; no op starts
# later than --seconds + GRACE_S, and an op is killed after OP_TIMEOUT_S, so
# a run ends within 180 s even if the program gets much slower.
GRACE_S = 60.0
OP_TIMEOUT_S = 45.0
# The tail is a fixed percentile, not "the highest with 10 ops beyond it":
# a run ends on time, so its op count follows the program's speed, and a
# percentile that moves with the op count would move with the speed too.
# A run holds at least 40 ops on every workload, so p75 keeps 10 beyond it.
TAIL_PERCENTILE = 75

# On a shared 2-vCPU host the speed swings by up to 1.8x for seconds to
# minutes at a time (a fixed Python loop, averaged over 30 s windows, spread
# by 29% between windows), which would swamp most changes to the program.
# So this script times a fixed loop of REF_LOOP additions after every op, and
# a run's wall times are rescaled to a host on which that loop takes
# REF_NOMINAL_S, using the median of the run's samples.  The program never
# runs this loop, so its own speed still shows.
REF_LOOP = 200_000
REF_NOMINAL_S = 0.010
# A setup spawn is short, so it is rescaled by the pace samples taken around
# it (SETUP_WINDOW either side) rather than by the whole run's: in ten runs
# per workload on such a host, that and a spawn per half cycle instead of per
# cycle cut the spread of setup_s between runs from 8-23% to 6-9%.
SETUP_WINDOW = 4


@dataclass
class Op:
    """Outcome of one op process."""

    spec: dict
    latency_s: float
    rss_mb: float
    problem: str | None  # why the op failed; None when it passed
    rows: int
    bytes_out: int
    trace: dict | None  # the tracer's record, for traced ops


class HostPace:
    """Timings of a fixed pure-Python loop, taken in this process over one run."""

    def __init__(self):
        self.samples = []
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(REF_LOOP):
            total += i
        self.samples.append(time.perf_counter() - start)

    def scale(self, around: int | None = None) -> float:
        """Factor that rescales wall times to the nominal pace.

        From the median of all samples, or, given around, of the samples
        within SETUP_WINDOW of index around.
        """
        samples = self.samples
        if around is not None:
            samples = samples[max(0, around - SETUP_WINDOW): around + SETUP_WINDOW]
        return REF_NOMINAL_S / statistics.median(samples)


def _read(fd: int) -> bytes:
    os.lseek(fd, 0, os.SEEK_SET)
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)


def spawn(cmd, env):
    """Run cmd to completion; return (seconds, ru_maxrss in KiB, exit code, stdout, stderr).

    stdout and stderr go to in-memory files, so the op never blocks on a
    pipe and nothing is written to disk; rusage comes from wait4 for this
    child alone.
    """
    out = os.memfd_create("op-stdout")
    err = os.memfd_create("op-stderr")
    try:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out, 1),
            (os.POSIX_SPAWN_DUP2, err, 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(cmd[0], cmd, env, file_actions=actions)

        def kill(signum, frame):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        elapsed = time.perf_counter() - start
        return elapsed, usage.ru_maxrss, os.waitstatus_to_exitcode(status), _read(out), _read(err)
    finally:
        os.close(out)
        os.close(err)


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def setup_spawn(env) -> float:
    """Seconds to start an interpreter and import zetacomb.cli."""
    elapsed, _, code, _, err = spawn([sys.executable, "-c", "import zetacomb.cli"], env)
    if code != 0:
        raise SystemExit(f"perfbench: importing zetacomb.cli failed:\n{err.decode(errors='replace')}")
    return elapsed


def run_op(spec, env, traced: bool) -> Op:
    args = workloads.argv(spec)
    if traced:
        cmd = [sys.executable, str(HERE / "tracer.py"), *args]
    else:
        cmd = [sys.executable, "-m", "zetacomb.cli", *args]
    elapsed, rss_kib, code, out, err = spawn(cmd, env)
    trace = None
    if traced:
        head, marker, payload = err.decode(errors="replace").rpartition(tracer.MARKER)
        if marker:
            err, trace = head.encode(), json.loads(payload)
    problem = None
    rows = 0
    if code != 0:
        problem = f"exit code {code}: {err.decode(errors='replace').strip()[-300:]}"
    elif err:
        problem = f"unexpected stderr: {err.decode(errors='replace').strip()[-300:]}"
    elif traced and trace is None:
        problem = "no trace record"
    else:
        try:
            rows = check.check_output(spec, out.decode("utf-8"))
        except (check.CheckFailed, UnicodeDecodeError) as exc:
            problem = str(exc)
    return Op(spec, elapsed, rss_kib / 1024.0, problem, rows, len(out), trace)


def run_ops(specs, env, traced, pace, deadline=None) -> list:
    done = []
    for spec in specs:
        if deadline is not None and time.perf_counter() > deadline:
            break
        op = run_op(spec, env, traced)
        pace.sample()
        if op.problem:
            print(f"FAILED {' '.join(workloads.argv(spec))}: {op.problem}", file=sys.stderr)
        done.append(op)
    return done


# -- end-to-end ------------------------------------------------------------------

def tail(latencies: list):
    """(value, ops beyond it): the TAIL_PERCENTILE latency, nearest rank."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(TAIL_PERCENTILE / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload: str, seed: int, seconds: float, env) -> dict:
    setup_spawn(env)  # untimed: writes the bytecode caches, as an install would
    pace = HostPace()
    setup = []  # (wall seconds, index of the next pace sample)

    def take_setup():
        setup.append((setup_spawn(env), len(pace.samples)))

    for _ in range(SETUP_SPAWNS):
        take_setup()
    start = time.perf_counter()
    deadline = start + seconds + GRACE_S
    ops = []
    for cycle in workloads.cycles(workload, seed):
        half = len(cycle) // 2
        for part in (cycle[:half], cycle[half:]):
            ops += run_ops(part, env, False, pace, deadline)
            take_setup()
        now = time.perf_counter()
        if now - start >= seconds or now > deadline:
            break
    ok = [op for op in ops if not op.problem]
    failed = len(ops) - len(ok)
    latencies = [op.latency_s for op in ops]
    value, beyond = tail(latencies)
    wall = {
        "setup_s": statistics.median(wall_s for wall_s, _ in setup),
        "ops_per_s": len(ok) / math.fsum(latencies),
        "op_s.p50": statistics.median(latencies),
        "op_s.tail": value,
    }
    scale = pace.scale()
    metrics = {
        "setup_s": (statistics.median(wall_s * pace.scale(k) for wall_s, k in setup), "s"),
        "ops_per_s": (wall["ops_per_s"] / scale, "ops/s"),
        "op_s.p50": (wall["op_s.p50"] * scale, "s"),
        "op_s.tail": (wall["op_s.tail"] * scale, "s"),
        "rss_peak_mb": (max(op.rss_mb for op in ops), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} spawns of `python -c 'import zetacomb.cli'` over the run,"
                   f" each rescaled by the pace within {SETUP_WINDOW} samples of it",
        "ops_per_s": f"{len(ok)} correct ops / their summed latency (checking excluded)",
        "op_s.p50": f"median of {len(ops)} ops, spawn to exit",
        "op_s.tail": f"p{TAIL_PERCENTILE} of {len(ops)} ops, {beyond} ops beyond it",
        "rss_peak_mb": "highest ru_maxrss over the op processes (wait4)",
    }
    print(f"== {workload}  seed {seed}  untraced  {len(ops)} ops in {time.perf_counter() - start:.1f} s wall")
    print("   closed loop, 1 client; nothing in the library queues or waits, so no wait metric exists")
    print(f"   op times are rescaled by {scale:.4f} = {REF_NOMINAL_S * 1e3:g} ms / median reference-loop time"
          f" ({len(pace.samples)} samples); wall values in brackets")
    for name, (v, unit) in metrics.items():
        raw = f"(wall {wall[name]:.6g})" if name in wall else ""
        print(f"   {name:<14} {v:12.6g} {unit:<6} {raw:<18} {notes[name]}")
    print(f"   {'fail_ratio':<14} {failed / len(ops):12.6g} {'1':<6} {'':<18} {failed} failed / {len(ops)} attempted")
    return {"attempted": len(ops), "failed": failed, "metrics": metrics}


# -- per layer ---------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list, overhead_ratio: float):
    """(metrics, ratio bases, absent entry points) over the traced ops.

    Times are totals in seconds, counts are exact totals.
    """
    records = [op.trace for op in traced if op.trace]
    self_s = {layer: math.fsum(r["self_s"].get(layer, 0.0) for r in records) for layer in tracer.LAYERS}

    def total(kind, key):
        return sum(r[kind].get(key, 0) for r in records)

    c = {key: total("counts", key) for key in (
        "zeta_ladder.orders", "zeta_ladder.bernoulli_calls", "exactalg.calls", "quad.calls",
        "quad.panels", "quad.integrand_evals", "quad.failures", "testfn.evals", "kernels.evals",
        "kernels.sum_terms", "actions.modes", "actions.series_terms")}
    rows = sum(op.rows for op in traced)
    ladder_s = total("inclusive", "zeta_even")
    oracle_s = total("inclusive", "bernoulli_oracle")
    metrics = {
        "cli.import_s": (statistics.median(r["import_s"] for r in records) if records else 0.0, "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.rows": (rows, "count"),
        "cli.bytes_out": (sum(op.bytes_out for op in traced), "bytes"),
        "cli.s_per_row": (_ratio(self_s["cli"], rows), "s/row"),
        "zeta_ladder.orders": (c["zeta_ladder.orders"], "count"),
        "zeta_ladder.ladder_s": (ladder_s, "s"),
        "zeta_ladder.s_per_order": (_ratio(ladder_s, c["zeta_ladder.orders"]), "s/order"),
        "zeta_ladder.bernoulli_calls": (c["zeta_ladder.bernoulli_calls"], "count"),
        "zeta_ladder.oracle_s": (oracle_s, "s"),
        "zeta_ladder.s_per_bernoulli": (_ratio(oracle_s, c["zeta_ladder.bernoulli_calls"]), "s/call"),
        "zeta_ladder.self_s": (self_s["zeta_ladder"], "s"),
        "exactalg.calls": (c["exactalg.calls"], "count"),
        "exactalg.self_s": (self_s["exactalg"], "s"),
        "quad.calls": (c["quad.calls"], "count"),
        "quad.panels": (c["quad.panels"], "count"),
        "quad.integrand_evals": (c["quad.integrand_evals"], "count"),
        "quad.failures": (c["quad.failures"], "count"),
        "quad.self_s": (self_s["quad"], "s"),
        "quad.s_per_panel": (_ratio(self_s["quad"], c["quad.panels"]), "s/panel"),
        "quad.s_per_integrand_eval": (_ratio(total("inclusive", "integrand"), c["quad.integrand_evals"]), "s/eval"),
        "testfn.evals": (c["testfn.evals"], "count"),
        "testfn.self_s": (self_s["testfn"], "s"),
        "kernels.evals": (c["kernels.evals"], "count"),
        "kernels.sum_terms": (c["kernels.sum_terms"], "count"),
        "kernels.self_s": (self_s["kernels"], "s"),
        "kernels.s_per_eval": (_ratio(self_s["kernels"], c["kernels.evals"]), "s/eval"),
        "actions.modes": (c["actions.modes"], "count"),
        "actions.series_terms": (c["actions.series_terms"], "count"),
        "actions.self_s": (self_s["actions"], "s"),
        "trace.overhead_ratio": (overhead_ratio, "1"),
    }
    bases = {
        "cli.s_per_row": ("cli.self_s", "cli.rows"),
        "zeta_ladder.s_per_order": ("zeta_ladder.ladder_s", "zeta_ladder.orders"),
        "zeta_ladder.s_per_bernoulli": ("zeta_ladder.oracle_s", "zeta_ladder.bernoulli_calls"),
        "quad.s_per_panel": ("quad.self_s", "quad.panels"),
        "quad.s_per_integrand_eval": ("integrand time", "quad.integrand_evals"),
        "kernels.s_per_eval": ("kernels.self_s", "kernels.evals"),
        "trace.overhead_ratio": ("traced op time", "untraced op time, same ops"),
    }
    missing = sorted({name for r in records for name in r["missing"]})
    return metrics, bases, missing


def write_spans(workload: str, seed: int, traced: list) -> Path:
    """All spans of the traced ops as [op, name, start_s, end_s, parent]."""
    spans = [
        [index, name, start, end, parent]
        for index, op in enumerate(traced) if op.trace
        for name, start, end, parent in op.trace["spans"]
    ]
    TRACE_OUT.mkdir(exist_ok=True)
    path = TRACE_OUT / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"columns": ["op", "name", "start_s", "end_s", "parent"], "spans": spans}))
    return path


def per_layer(workload: str, seed: int, seconds: float, env) -> dict:
    setup_spawn(env)  # writes the bytecode caches
    specs = next(workloads.cycles(workload, seed))
    deadline = time.perf_counter() + seconds + GRACE_S
    plain_pace, traced_pace = HostPace(), HostPace()
    plain = run_ops(specs, env, False, plain_pace, deadline)
    traced = run_ops(specs, env, True, traced_pace, deadline)
    overhead = _ratio(
        math.fsum(op.latency_s for op in traced) * traced_pace.scale(),
        math.fsum(op.latency_s for op in plain) * plain_pace.scale(),
    )
    metrics, bases, missing = layer_metrics(traced, overhead)
    path = write_spans(workload, seed, traced)
    ops = plain + traced
    failed = sum(1 for op in ops if op.problem)
    print(f"== {workload}  seed {seed}  traced  first cycle of {len(specs)} ops, run plain then traced")
    print(f"   spans written to {path.relative_to(ROOT)}")
    print(f"   absent entry points (their metrics read 0): {', '.join(missing) or 'none'}")
    for name, (v, unit) in metrics.items():
        line = f"   {name:<28} {v:12.6g} {unit:<8}"
        if name in bases:
            num, den = bases[name]
            line += f" = {num} / {den}"
        print(line)
    return {"attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zetacomb" / "cli.py").is_file():
        print(f"perfbench: no zetacomb sources at {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    measure = per_layer if args.trace else end_to_end
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, env)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        for key, (value, unit) in result["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
