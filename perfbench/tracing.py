"""Outside-in span tracer for the qgeom layers.

The program carries no instrumentation, so the tracer wraps, from the
benchmark's side, every public function of the seven layer modules: the
functions in each module's ``__all__``, plus ``cli.main`` and ``cli.run``.
Modules import each other's functions by name (``from .model import
hamiltonian_at``), so each wrapper is bound in place of the original in
every ``qgeom`` module namespace that holds it, not only the defining one.
Layers are named by module, so renamed or added functions are picked up
without changing this file.

Spans live in flat in-memory arrays (name, start, end, parent span,
invocation id) and are written out once, by ``save``, when the run ends.
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "expr", "model", "numerics", "qgt", "geometry", "dynamics")

# counts taken from a wrapped function's result
RESULT_COUNTS = {
    "geometry.plaquette_flux_grid": ("geometry.plaquettes", lambda r: r.size),
    "dynamics.evolve": ("dynamics.rk4_steps", lambda r: r.n_steps),
}


class Tracer:
    """Records a span around each call of a wrapped function while installed."""

    def __init__(self):
        self.names: list[str] = []     # "layer.function"
        self.span_name = array("q")
        self.parent = array("q")
        self.invocation = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self.current_invocation = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function and rebind it wherever qgeom holds it."""
        import qgeom  # noqa: F401  (loads every layer module)

        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"qgeom.{layer}"]
            names = list(getattr(module, "__all__", ()))
            if layer == "cli":
                names += ["main", "run"]
            for name in names:
                fn = getattr(module, name, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qgeom" and not mod_name.startswith("qgeom."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        counter = RESULT_COUNTS.get(qualname)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.span_name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.invocation.append(self.current_invocation)
            self.end.append(0)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if counter is not None:
                self.counts[counter[0]] = self.counts.get(counter[0], 0) + counter[1](result)
            return result

        return traced

    # -- reading -----------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """A position to measure a pass from: (span count, counter snapshot)."""
        return len(self.start), dict(self.counts)

    def spans(self, since=None) -> dict:
        """Spans recorded after ``since`` (a ``mark``) as numpy columns."""
        lo = since[0] if since else 0
        cols = {
            "name": self.span_name, "parent": self.parent,
            "invocation": self.invocation, "start": self.start, "end": self.end,
        }
        out = {k: np.frombuffer(v, dtype=np.int64)[lo:].copy() for k, v in cols.items()}
        out["parent"] -= lo
        return out

    def pass_metrics(self, since) -> dict[str, float]:
        """Per-layer calls, self times and counts over the spans after ``since``."""
        s = self.spans(since)
        names = self.names
        n = s["name"].size
        dur = (s["end"] - s["start"]).astype(float) * 1e-9
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        layer_of_name = np.array([LAYERS.index(q.split(".")[0]) for q in names])
        layer = layer_of_name[s["name"]]
        calls = np.bincount(layer, minlength=len(LAYERS))
        self_s = np.bincount(layer, weights=own, minlength=len(LAYERS))
        out: dict[str, float] = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])

        per_name = np.bincount(s["name"], minlength=len(names))

        def count(*qualnames):
            return int(sum(per_name[names.index(q)] for q in qualnames if q in names))

        out["expr.evals"] = count("expr.evaluate", "expr.evaluate_with_derivative")
        out["model.assemblies"] = count("model.hamiltonian_at", "model.hamiltonian_derivative_at")
        out["numerics.eigensolves"] = count("numerics.hermitian_eigensystem")
        out["qgt.tensors"] = count("qgt.qgt_from_eigensystem")
        makers = [names.index(q) for q in
                    ("model.load_model_spec", "model.spin_half", "model.two_band_lattice")
                    if q in names]
        out["model.load_s"] = float(dur[np.isin(s["name"], makers)].sum())
        for key, _ in RESULT_COUNTS.values():
            out[key] = self.counts.get(key, 0) - since[1].get(key, 0)
        out["dynamics.hamiltonians_in_evolve"] = self._inside(
            s, "dynamics.evolve", "model.hamiltonian_at")
        return out

    def calls_by_invocation(self, since, qualnames) -> dict[int, int]:
        """Calls of the named functions after ``since``, per invocation id."""
        s = self.spans(since)
        ids = [self.names.index(q) for q in qualnames if q in self.names]
        inv = s["invocation"][np.isin(s["name"], ids)]
        return {int(k): int(v) for k, v in zip(*np.unique(inv, return_counts=True))}

    def _inside(self, s, outer: str, inner: str) -> int:
        """Number of ``inner`` spans that have an ``outer`` span as ancestor."""
        if outer not in self.names or inner not in self.names:
            return 0
        outer_id, inner_id = self.names.index(outer), self.names.index(inner)
        name, parent = s["name"].tolist(), s["parent"].tolist()
        inside = [False] * len(name)
        for i, (n, p) in enumerate(zip(name, parent)):  # parents precede children
            inside[i] = n == outer_id or (p >= 0 and inside[p])
        return sum(1 for n, i in zip(name, inside) if i and n == inner_id)

    def save(self, path, invocations: list[str]) -> None:
        """Write every span, the name table and the invocation commands."""
        np.savez(path, names=np.array(self.names), commands=np.array(invocations),
                 **self.spans())
