"""Per-layer tracing of one zetacomb CLI op, from outside the library.

Run as ``python perfbench/tracer.py <zetacomb argv...>`` with ``src`` on
PYTHONPATH.  It imports ``zetacomb.cli``, wraps the entry points of the seven
modules, runs ``zetacomb.cli.run(argv)`` and then writes one line
``MARKER + json`` to stderr holding the op's per-layer record.

Each wrapped call is a *frame* charged to one layer.  A frame's self time is
its duration minus the time of the frames nested inside it, so the layers'
self times add up to the traced part of the op.  Coarse boundaries (the CLI
commands' calls into the library, and every adaptive integration) are also
recorded as spans: name, start, end and parent span.  Hot inner boundaries
(integrand, test-function and kernel evaluations, PiPolynomial methods)
only add to counters, because one op can make 10^5 to 10^6 such calls.

Entry points are patched where the consuming module looks them up: for
example ``actions.integrate_adaptive`` and ``kernels.integrate_adaptive`` are
separate bindings of the same function.  A name the library no longer has
is listed under ``missing`` and its counters stay at zero; the op still runs.

At module level this file imports only sys and time, so that the timed
``import zetacomb.cli`` in main() pays for every module the library needs;
the other imports are made inside the functions, after it.
"""

import sys
import time

MARKER = "@@perfbench-trace "

LAYERS = ("cli", "zeta_ladder", "exactalg", "quad", "testfn", "kernels", "actions")

_PI_POLYNOMIAL_METHODS = (
    "__init__", "__call__", "antiderivative", "derivative", "mean", "__add__", "__sub__",
)


def _size(x) -> int:
    """Number of points in an evaluation: 1 for a scalar, .size for an array."""
    return getattr(x, "size", 1)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    """Frame stack, per-layer self times, counters and spans for one process."""

    def __init__(self):
        from collections import defaultdict

        self.origin = time.perf_counter()
        self.stack = [[None, 0.0]]  # [enclosing span id, time of nested frames]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.inclusive = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []  # [name, start, end, parent span id]
        self.missing = []

    def timed(self, fn, layer, name=None, span=False, tally=None):
        """Wrap fn in a frame charged to layer.

        name: accumulate the frame's inclusive time under this key (and, with
        span=True, record a span of that name).  tally(args, kwargs) returns
        (counter, amount) pairs added when the call ends.
        """
        clock, stack, self_s = time.perf_counter, self.stack, self.self_s
        inclusive, counts, spans, origin = self.inclusive, self.counts, self.spans, self.origin

        def wrapper(*args, **kwargs):
            parent = stack[-1][0]
            if span:
                record = [name, 0.0, 0.0, parent]
                frame = [len(spans), 0.0]
                spans.append(record)
            else:
                frame = [parent, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][1] += elapsed
                self_s[layer] += elapsed - frame[1]
                if name is not None:
                    inclusive[name] += elapsed
                if span:
                    record[1] = start - origin
                    record[2] = start + elapsed - origin
                if tally is not None:
                    for key, amount in tally(args, kwargs):
                        counts[key] += amount

        wrapper.__wrapped__ = fn
        return wrapper

    def record(self, import_s: float, exit_code: int) -> dict:
        return {
            "import_s": import_s,
            "exit": exit_code,
            "self_s": self.self_s,
            "inclusive": dict(self.inclusive),
            "counts": dict(self.counts),
            "spans": self.spans,
            "missing": self.missing,
        }


def _count(key):
    return lambda args, kwargs: ((key, 1),)


def _evals(key, index, name):
    return lambda args, kwargs: ((key, _size(_arg(args, kwargs, index, name))),)


def _dirichlet_tally(args, kwargs):
    n = _arg(args, kwargs, 0, "N")
    points = _size(_arg(args, kwargs, 1, "x"))
    return (("kernels.evals", points), ("kernels.sum_terms", n * points))


def _series_tally(args, kwargs):
    n = _arg(args, kwargs, 0, "N")
    return (("actions.series_terms", n * _size(_arg(args, kwargs, 1, "x"))),)


def _quadrature(tracer: Tracer, quad_module, integrand_layer: str):
    """Hook for one binding of integrate_adaptive.

    The integrand is wrapped in a frame charged to integrand_layer, the
    module whose code it is; panels and failures are read from the result
    or from the QuadratureError, so no quad internals are touched.
    """
    failure = getattr(quad_module, "QuadratureError", ())
    counts = tracer.counts

    def hook(fn):
        def call(f, *args, **kwargs):
            counts["quad.calls"] += 1
            integrand = tracer.timed(
                f, integrand_layer, name="integrand",
                tally=_evals("quad.integrand_evals", 0, "x"),
            )
            try:
                result = fn(integrand, *args, **kwargs)
            except failure as exc:
                counts["quad.failures"] += 1
                counts["quad.panels"] += getattr(exc, "panels_used", 0)
                raise
            counts["quad.panels"] += getattr(result, "panels_used", 0)
            return result

        return tracer.timed(call, "quad", name="integrate_adaptive", span=True)

    return hook


def _test_function(tracer: Tracer):
    """Hook for a TestFunction factory: wrap the evaluator of what it returns."""

    import dataclasses

    def hook(factory):
        def make(*args, **kwargs):
            phi = factory(*args, **kwargs)
            try:
                evaluator = tracer.timed(phi.evaluator, "testfn", tally=_evals("testfn.evals", 0, "x"))
                return dataclasses.replace(phi, evaluator=evaluator)
            except (AttributeError, TypeError):
                if "testfn.evaluator" not in tracer.missing:
                    tracer.missing.append("testfn.evaluator")
                return phi

        return make

    return hook


def install(tracer: Tracer, package: str = "zetacomb") -> dict:
    """Wrap the entry points of the seven modules; return the loaded modules."""
    import importlib

    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"{package}.{layer}")
        except ModuleNotFoundError:
            tracer.missing.append(layer)

    def frame(layer, name=None, span=False, tally=None):
        return lambda fn: tracer.timed(fn, layer, name=name, span=span, tally=tally)

    quad = modules.get("quad")
    hooks = [
        # (consuming module, attribute, wrapper)
        ("cli", "zeta_even", frame("zeta_ladder", "zeta_even", span=True)),
        ("cli", "bernoulli_oracle", frame("zeta_ladder", "bernoulli_oracle", span=True)),
        ("zeta_ladder", "ladder_step", frame("zeta_ladder", tally=_count("zeta_ladder.orders"))),
        ("zeta_ladder", "bernoulli_number", frame("zeta_ladder", tally=_count("zeta_ladder.bernoulli_calls"))),
        ("cli", "deltaN_action", frame("actions", "deltaN_action", span=True)),
        ("cli", "delta0_partial_action", frame("actions", "delta0_partial_action", span=True)),
        ("cli", "delta0_comb_action", frame("actions")),
        ("cli", "fourier_partial_delta1", frame("actions", "fourier_partial_delta1", span=True, tally=_series_tally)),
        ("cli", "fourier_partial_delta2", frame("actions", "fourier_partial_delta2", span=True, tally=_series_tally)),
        ("cli", "delta1_closed", frame("actions")),
        ("cli", "delta2_closed", frame("actions")),
        ("actions", "_cosine_mode", frame("actions", tally=_count("actions.modes"))),
        ("actions", "_windowed_compact", frame("kernels", tally=_evals("kernels.evals", 1, "x"))),
        ("cli", "kernel_samples", frame("kernels", "kernel_samples", span=True)),
        ("kernels", "dirichlet_sum", frame("kernels", tally=_dirichlet_tally)),
        ("kernels", "_windowed_compact", frame("kernels", tally=_evals("kernels.evals", 1, "x"))),
        ("cli", "sinc_truncated", frame("quad")),
        ("quad", "integrate_adaptive", _quadrature(tracer, quad, "quad")),
        ("actions", "integrate_adaptive", _quadrature(tracer, quad, "actions")),
        ("kernels", "integrate_adaptive", _quadrature(tracer, quad, "kernels")),
        ("cli", "gaussian_bump", _test_function(tracer)),
        ("cli", "bump_plateau", _test_function(tracer)),
    ]
    for module_name, attribute, wrap in hooks:
        module = modules.get(module_name)
        if module is None or not callable(getattr(module, attribute, None)):
            tracer.missing.append(f"{module_name}.{attribute}")
            continue
        setattr(module, attribute, wrap(getattr(module, attribute)))

    polynomial = getattr(modules.get("exactalg"), "PiPolynomial", None)
    for method in _PI_POLYNOMIAL_METHODS:
        fn = vars(polynomial).get(method) if polynomial is not None else None
        if not callable(fn):
            tracer.missing.append(f"exactalg.PiPolynomial.{method}")
            continue
        setattr(polynomial, method, tracer.timed(fn, "exactalg", tally=_count("exactalg.calls")))
    return modules


def main(argv) -> int:
    start = time.perf_counter()
    import zetacomb.cli  # noqa: F401  (timed: the import a user pays for)

    import_s = time.perf_counter() - start
    tracer = Tracer()
    modules = install(tracer)
    run = tracer.timed(modules["cli"].run, "cli", name="cli.run", span=True)
    code = run(argv)
    import json

    sys.stdout.flush()
    sys.stderr.write(MARKER + json.dumps(tracer.record(import_s, code)) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
