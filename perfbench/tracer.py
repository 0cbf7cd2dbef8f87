"""Span tracer that wraps orbitlab's public functions from the outside.

Nothing in ``src/`` is instrumented. ``Tracer.install`` replaces each traced
function at every name an orbitlab module looks it up by: the module that
defines it, and every other orbitlab namespace that imported it with
``from .x import f`` (``expcli`` holds its own ``build``, ``orbits`` its own
``dist``, and so on). Methods are patched on their class. ``uninstall``
puts the originals back.

Spans are kept in memory as (id, parent id, layer, start, end); a layer's
self time is its span's duration minus the durations of its direct child
spans. Counters are added at the same boundaries.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

from workloads import default_k


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    layer: str
    start: float
    end: float


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per layer: each span's duration minus its children's."""
    child_total: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_total[s.parent] = child_total.get(s.parent, 0.0) + (s.end - s.start)
    out: dict[str, float] = {}
    for s in spans:
        own = (s.end - s.start) - child_total.get(s.sid, 0.0)
        out[s.layer] = out.get(s.layer, 0.0) + own
    return out


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


# Counter functions: (args, kwargs, result) -> {counter: amount}.

def _csv_counts(args, kwargs, result):
    path = os.path.join(os.fspath(_arg(args, kwargs, 0, "outdir")), result)
    with open(path, "rb") as f:
        data = f.read()
    return {"rows": data.count(b"\n") - 1, "bytes": len(data)}


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _points(args, kwargs, result):
    return {"points": len(result)}


def _coeffs(args, kwargs, result):
    return {"coeffs": int(result.x.nnz)}


def _k_scanned(args, kwargs, result):
    if result is not None:
        return {"k_scanned": int(result.k)}
    K = _arg(args, kwargs, 3, "K")
    if K is None:
        K = default_k(args[0].n_max, _arg(args, kwargs, 1, "m"), _arg(args, kwargs, 2, "tau", 1))
    return {"k_scanned": int(K)}


def _mr_diag(args, kwargs, result):
    d = result.diagnostics
    return {"hits": int(d.get("hits", 0)), "largest_ap": int(d.get("largest_ap", 0))}


def _steps(args, kwargs, result):
    return {"steps": int(_arg(args, kwargs, 3, "N"))}


def _calls(args, kwargs, result):
    return {"calls": 1}


def _eval_points(args, kwargs, result):
    return {"points": len(result[0])}


@dataclass(frozen=True)
class Probe:
    """One traced function: where it lives and what to count around it."""

    module: str
    attr: str  # "func" or "Class.method"
    layer: str  # metric prefix, "<module>.<function>"
    count: Callable | None = None
    counters: tuple[str, ...] = ()  # the keys ``count`` returns
    peak_mem: bool = False


PROBES = (
    Probe("orbitlab.expcli", "write_csv", "expcli.write_csv", _csv_counts, ("rows", "bytes")),
    Probe("orbitlab.expcli", "read_vector_csv", "expcli.read_csv"),
    Probe("orbitlab.expcli", "_load_hits", "expcli.read_csv"),
    Probe("orbitlab.expcli", "verify_report", "expcli.verify_report"),
    Probe("orbitlab.fhbuilder", "build", "fhbuilder.build", _coeffs, ("coeffs",)),
    Probe("orbitlab.fhbuilder", "verify_fu", "fhbuilder.verify_fu"),
    Probe("orbitlab.orbits", "orbit_distances", "orbits.orbit_distances", _points, ("points",)),
    Probe("orbitlab._kernels", "flat_orbit_dist2", "kernels.flat_orbit_dist2", _rows, ("rows",)),
    Probe("orbitlab._kernels", "general_orbit_dist2", "kernels.general_orbit_dist2", _rows,
          ("rows",)),
    Probe("orbitlab.orbits", "find_ap", "orbits.find_ap", _k_scanned, ("k_scanned",)),
    Probe("orbitlab._kernels", "ap_scan", "kernels.ap_scan"),
    Probe("orbitlab.orbits", "mr_witness_search", "orbits.mr_witness_search", _mr_diag,
          ("hits", "largest_ap")),
    Probe("orbitlab.orbits", "recurrence_scan", "orbits.recurrence_scan", _steps, ("steps",)),
    Probe("orbitlab.lspace", "dist", "lspace.dist", _calls, ("calls",)),
    Probe("orbitlab.shiftops", "scaled_orbit_point", "shiftops.scaled_orbit_point", _calls,
          ("calls",)),
    Probe("orbitlab.shiftops", "ShiftOp.power_apply", "shiftops.power_apply", _calls,
          ("calls",)),
    Probe("orbitlab.shiftops", "product_table", "shiftops.product_table"),
    Probe("orbitlab.criteria", "fhc_series_check", "criteria.fhc_series_check", peak_mem=True),
    Probe("orbitlab.criteria", "salas_check", "criteria.salas_check", peak_mem=True),
    Probe("orbitlab.seqcore", "ratio_classify", "seqcore.ratio_classify"),
    Probe("orbitlab.seqcore", "eval_at", "seqcore.eval_at", _eval_points, ("points",)),
    Probe("orbitlab.symbolops", "classify_adjoint", "symbolops.classify_adjoint"),
)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    peaks: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _ids: itertools.count = field(default_factory=itertools.count)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, fn, probe: Probe):
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            mem = probe.peak_mem and not tracemalloc.is_tracing()
            if mem:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if mem:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    key = probe.layer + ".peak_mb"
                    self.peaks[key] = max(self.peaks.get(key, 0.0), peak)
                self._stack.pop()
                self.spans.append(Span(sid, parent, probe.layer, t0, t1))
            if probe.count is not None:
                for k, v in probe.count(args, kwargs, result).items():
                    key = f"{probe.layer}.{k}"
                    self.counts[key] = self.counts.get(key, 0) + v
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every probe; a function the program no longer has is skipped."""
        mods = [m for n, m in sys.modules.items() if n == "orbitlab" or n.startswith("orbitlab.")]
        for probe in PROBES:
            home = sys.modules.get(probe.module)
            if home is None:
                continue
            if "." in probe.attr:
                cls_name, meth = probe.attr.split(".")
                cls = getattr(home, cls_name, None)
                orig = getattr(cls, meth, None)
                if orig is None:
                    continue
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(orig, probe))
                continue
            orig = getattr(home, probe.attr, None)
            if orig is None:
                continue
            wrapper = self.wrap(orig, probe)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Self seconds, counters and peak allocations for every probed layer."""
        # a layer the workload never reaches still reports 0
        out: dict[str, float] = {}
        for probe in PROBES:
            out[probe.layer + ".s"] = 0.0
            if probe.peak_mem:
                out[probe.layer + ".peak_mb"] = 0.0
            for n in probe.counters:
                out[f"{probe.layer}.{n}"] = 0
        for layer, s in self_times(self.spans).items():
            out[layer + ".s"] = s
        out.update(self.counts)
        out.update(self.peaks)
        return out
