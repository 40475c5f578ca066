"""In-memory spans around the calls into nlogis's public functions.

The traced run wraps each instrumented function everywhere the package
holds a reference to it (module globals are looked up at call time, so
wrapping the attribute in every nlogis module catches calls made from
inside the package too).  Spans are kept in a list and reduced to per-layer
metrics when the run ends; nothing is written while ops run.

LAPACK calls (cho_factor in spectral, solve in logistic) are counted and
timed but are not spans: they are the work of the solve that makes them,
so they stay inside that span's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("grids", "operators", "spectral", "logistic", "transmission",
          "strategic", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append((sp.start, sp.end))
    out = []
    for sp, kids in zip(spans, children):
        covered, reach = 0.0, sp.start
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, sp.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((sp.end - sp.start) - covered)
    return out


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0.0), value)

    def span(self, name: str, fn, on_result=None):
        """fn wrapped in a span; on_result(tracer, result, args, kwargs)."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            sp = Span(name, perf_counter(), parent=parent)
            self.spans.append(sp)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result
        return traced

    def counter(self, count_key: str, time_key: str, fn):
        """fn wrapped to count its calls and time them, outside the tree."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(time_key, perf_counter() - t0)
                self.add(count_key, 1)
        return counted

    def metrics(self) -> dict[str, float]:
        """Per-span-name calls and seconds, per-layer self time, counters."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for sp, own in zip(self.spans, self_times(self.spans)):
            dur = sp.end - sp.start
            out[f"{sp.name}.calls"] = out.get(f"{sp.name}.calls", 0) + 1
            out[f"{sp.name}.s"] = out.get(f"{sp.name}.s", 0.0) + dur
            layer = sp.name.split(".")[0]
            out[f"{layer}.self_s"] += own
            if sp.name != layer:
                key = f"{sp.name}.self_s"
                out[key] = out.get(key, 0.0) + own
        out.update(self.counts)
        return out


# ---------------------------------------------------------------------------
# what is instrumented
# ---------------------------------------------------------------------------

def _matrix_bytes(tracer, result, args, kwargs):
    a = getattr(result, "a", result)
    tracer.add("operators.bytes_computed", 8 * a.shape[0] * a.shape[1])


def _eig(tracer, result, args, kwargs):
    tracer.add("spectral.eig.iters", result.iterations)


def _solve_report(max_iter_default):
    def hook(tracer, result, args, kwargs):
        budget = kwargs.get("max_iter", args[1] if len(args) > 1
                            else max_iter_default)
        tracer.add("logistic.iters", result.iterations)
        tracer.peak("logistic.iters_max", result.iterations)
        tracer.add("logistic.stalled", int(result.iterations >= budget))
    return hook


def _transmission_iters(tracer, result, args, kwargs):
    tracer.add("transmission.iters", result.iterations)


def _radii(tracer, result, args, kwargs):
    tracer.add("strategic.radii", len(result.history))


def _rows(tracer, result, args, kwargs):
    tracer.add("cli.rows", len(result))


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


def _targets(nlogis):
    """(module, attribute, span name, result hook) for spans and
    (module, attribute, None, (count key, time key)) for LAPACK counters."""
    g, o, sp, lg = (nlogis.grids, nlogis.operators, nlogis.spectral,
                    nlogis.logistic)
    tr, st, cli = nlogis.transmission, nlogis.strategic, nlogis.cli
    targets = [(g, name, "grids", None) for name in (
        "build_grid", "build_kernel", "build_periodic_grid", "problem_spec",
        "sample_function")]
    targets += [
        (o, "assemble_dirichlet", "operators.dirichlet", _matrix_bytes),
        (o, "assemble_classical", "operators.classical", _matrix_bytes),
        (o, "assemble_periodic", "operators.periodic", _matrix_bytes),
        (o, "assemble_transmission", "operators.transmission", _matrix_bytes),
        (o, "convolution_matrix", "operators.conv", _matrix_bytes),
        (sp, "first_eigenpair", "spectral.eig", _eig),
        (sp, "cho_factor", None,
         ("spectral.eig.factorizations", "spectral.factorize_s")),
        (lg, "solve_dirichlet", "logistic.solve",
         _solve_report(_default(lg.solve_dirichlet, "max_iter"))),
        (lg, "solve_periodic", "logistic.solve",
         _solve_report(_default(lg.solve_periodic, "max_iter"))),
        (lg, "solve", None,
         ("logistic.factorizations", "logistic.factorize_s")),
        (tr, "lambda_star", "transmission.lambda", None),
        (tr, "minimize_transmission", "transmission.minimize",
         _transmission_iters),
        (st, "approximate_s_harmonic", "strategic.harmonic", _radii),
        (st, "minimize_with_source", "strategic.forced", None),
        (cli, "parse_config", "cli.parse", None),
        (cli, "run", "cli.run", _rows),
        (cli, "csv_text", "cli.csv", None),
    ]
    return targets


def instrument(tracer: Tracer, nlogis) -> callable:
    """Wrap the targets and return an undo.

    A span target is replaced in every loaded nlogis module that holds it;
    a counter only in its own module, so that cho_factor calls made from
    strategic are not counted as spectral's.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "nlogis" or name.startswith("nlogis.")]
    undo = []
    for module, attr, span_name, extra in _targets(nlogis):
        original = getattr(module, attr)
        if span_name is None:
            wrapped = tracer.counter(*extra, original)
            holders = [module]
        else:
            wrapped = tracer.span(span_name, original, extra)
            holders = modules
        for mod in holders:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))

    def restore():
        for mod, key, val in reversed(undo):
            setattr(mod, key, val)
    return restore
