"""Outside-in tracing of the qgas layers.

The layers are the qgas modules.  :func:`install` wraps every public function
of ``qgas.polylog``, ``gas``, ``regime``, ``sweep`` and ``cli`` at every
module-level binding the program calls through (``qgas.regime.bose_g32`` is a
different binding from ``qgas.polylog.bose_g32``), so each call into a layer
records a span: name, parent span, start, end and a small note.  Spans stay in
memory; :func:`layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import time

LAYERS = ("polylog", "gas", "regime", "sweep", "cli")
SOLVES = ("regime.solve_bose", "regime.solve_fermi")
CLASSIFIERS = ("regime.classify_paper", "regime.classify_selfconsistent", "regime.classify_both")
SUBCOMMANDS = ("polylog", "thresholds", "classify", "sweep", "occupation")
# Spans that start a fresh cache: a cleared memo, or a new process.
COLD_STARTS = ("polylog.clear_series_cache", "bench.request")
BANDS = ("small", "mid", "near1")

# Span fields, kept as plain lists so spans can be written out as JSON.
NAME, PARENT, START, END, NOTE = range(5)


def band(z: float) -> str:
    """Fugacity band of one evaluation: small z <= 0.5, near1 z > 0.99, mid between."""
    if z <= 0.5:
        return "small"
    return "near1" if z > 0.99 else "mid"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def begin(self, name: str) -> list:
        record = [name, self._stack[-1], time.perf_counter(), math.nan, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def end(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording one span per call; ``note(args, kwargs, result)`` annotates it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1], 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[END] = clock()
                record[NOTE] = ["raised", type(exc).__name__]
                raise
            finally:
                stack.pop()
            record[END] = clock()
            if note is not None:
                record[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded elsewhere (a child process) under ``parent``."""
        offset = len(self.spans)
        for name, par, start, end, note in spans:
            self.spans.append([name, parent if par < 0 else par + offset, start, end, note])


def dump(spans: list[list], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spans, handle)


# --- span notes: what each layer call did ------------------------------------


def _polylog_note(args, kwargs, result):
    params = args[1] if len(args) > 1 else kwargs.get("params")
    key = None if params is None else [params.tolerance, params.max_terms]
    return [float(args[0]), key, result]


def _solve_note(args, kwargs, result):
    return [result.found, result.no_root_side]


def _emit_note(args, kwargs, result):
    return [len(args[0]), len(result)]


def _main_note(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return [argv[0] if argv else None, result]


NOTES = {
    "polylog.bose_g32": _polylog_note,
    "polylog.fermi_f32_full": _polylog_note,
    "polylog.fermi_f32_truncated": _polylog_note,
    "polylog.bose_g32_quadrature": _polylog_note,
    "regime.solve_bose": _solve_note,
    "regime.solve_fermi": _solve_note,
    "sweep.emit_csv": _emit_note,
    "sweep.emit_json": _emit_note,
    "cli.main": _main_note,
}


def install(tracer: Tracer):
    """Route every public qgas function through ``tracer``; returns the qgas package."""
    package = importlib.import_module("qgas")
    modules = [importlib.import_module(f"qgas.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, module in zip(LAYERS, modules):
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                wrappers[obj] = tracer.wrap(name, obj, NOTES.get(name))
    for module in [package, *modules]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
    pair = importlib.import_module("qgas.gas").FugacityPair
    pair.from_branch = classmethod(tracer.wrap("gas.from_branch", pair.__dict__["from_branch"].__func__))
    return package


# --- analysis -----------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    result = []
    for span, kids in zip(spans, children):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for c_start, c_end in sorted((spans[k][START], spans[k][END]) for k in kids):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def _ancestor(spans: list[list], i: int, names) -> int:
    parent = spans[i][PARENT]
    while parent >= 0 and spans[parent][NAME] not in names:
        parent = spans[parent][PARENT]
    return parent


def polylog_values(spans: list[list]) -> set[tuple[str, float, float]]:
    """Distinct (kind, z, value) of the order-3/2 series results, for the oracle."""
    kinds = {"polylog.bose_g32": "bose", "polylog.fermi_f32_full": "fermi"}
    return {
        (kinds[s[NAME]], s[NOTE][0], s[NOTE][2])
        for s in spans
        if s[NAME] in kinds and s[NOTE] and s[NOTE][0] != "raised" and s[NOTE][1] == [1e-12, 100000]
    }


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, self times and ratios over all recorded spans."""
    own = self_times(spans)
    self_by_layer: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, t in zip(spans, own):
        name = span[NAME]
        layer = name.split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + t
        self_by_name[name] = self_by_name.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1

    m: dict[str, float] = {}
    # polylog: calls, self time, bands, and the work a cache could serve.
    band_calls = dict.fromkeys(BANDS, 0)
    band_self = dict.fromkeys(BANDS, 0.0)
    seen: set = set()
    repeats = total = 0
    polylog_self = 0.0
    evals: dict[int, int] = {}
    for i, (span, t) in enumerate(zip(spans, own)):
        name = span[NAME]
        if name in COLD_STARTS:
            seen = set()
        if not name.startswith("polylog.") or name == "polylog.clear_series_cache":
            continue
        z = span[NOTE][0] if span[NOTE] and span[NOTE][0] != "raised" else None
        total += 1
        polylog_self += t
        key = (name, z, None if span[NOTE] is None else repr(span[NOTE][1]))
        repeats += key in seen
        seen.add(key)
        if isinstance(z, float):
            b = band(z)
            band_calls[b] += 1
            band_self[b] += t
        solve = _ancestor(spans, i, SOLVES)
        if solve >= 0:
            evals[solve] = evals.get(solve, 0) + 1
    m["polylog.calls"] = total
    m["polylog.self_s"] = polylog_self
    for b in BANDS:
        m[f"polylog.{b}.calls"] = band_calls[b]
        m[f"polylog.{b}.us_per_call"] = 1e6 * band_self[b] / band_calls[b] if band_calls[b] else 0.0
    m["polylog.near1.share"] = band_calls["near1"] / total if total else 0.0
    m["polylog.repeat_ratio"] = repeats / total if total else 0.0

    # gas
    m["gas.from_branch.calls"] = calls.get("gas.from_branch", 0)
    m["gas.self_s"] = self_by_layer.get("gas", 0.0)

    # regime: classifications, solves and their outcomes.
    m["regime.classify.calls"] = sum(
        1 for s in spans
        if s[NAME] in CLASSIFIERS and (s[PARENT] < 0 or spans[s[PARENT]][NAME] not in CLASSIFIERS)
    )
    m["regime.classify.self_s"] = sum(self_by_name.get(n, 0.0) for n in CLASSIFIERS)
    m["regime.solve_bose.self_s"] = self_by_name.get("regime.solve_bose", 0.0)
    m["regime.solve_fermi.calls"] = calls.get("regime.solve_fermi", 0)
    outcomes = {"root": [0, 0], "below": [0, 0], "above": [0, 0]}  # solves, evaluations
    bose_roots = 0
    for i, span in enumerate(spans):
        if span[NAME] in SOLVES and span[NOTE] and span[NOTE][0] != "raised":
            found, side = span[NOTE]
            outcome = outcomes["root" if found else side]
            outcome[0] += 1
            outcome[1] += evals.get(i, 0)
            if span[NAME] == "regime.solve_bose":
                bose_roots += found
    m["regime.roots"] = bose_roots
    m["regime.noroot_below"] = outcomes["below"][0]
    m["regime.noroot_above"] = outcomes["above"][0]
    root, below, above = outcomes["root"], outcomes["below"], outcomes["above"]
    m["regime.evals_per_root"] = root[1] / root[0] if root[0] else 0.0
    noroot = below[0] + above[0]
    m["regime.evals_per_noroot"] = (below[1] + above[1]) / noroot if noroot else 0.0

    # sweep: orchestration self time and emission cost per 1000 rows.
    m["sweep.run_sweep.self_s"] = self_by_name.get("sweep.run_sweep", 0.0)
    out_bytes = 0
    for fmt in ("csv", "json"):
        emits = [s for s in spans if s[NAME] == f"sweep.emit_{fmt}" and s[NOTE] and s[NOTE][0] != "raised"]
        rows = sum(s[NOTE][0] for s in emits)
        took = sum(s[END] - s[START] for s in emits)
        m[f"sweep.emit_{fmt}.ms_per_1000_rows"] = 1e6 * took / rows if rows else 0.0
        out_bytes += sum(s[NOTE][1] for s in emits)
    m["sweep.bytes_out"] = out_bytes
    classified = m["regime.classify.calls"]
    m["sweep.root_share"] = bose_roots / classified if classified else 0.0

    # cli: main minus its children, and in-process time per subcommand.
    m["cli.main.self_s"] = self_by_name.get("cli.main", 0.0)
    per_command: dict[str, list[float]] = {c: [] for c in SUBCOMMANDS}
    for span in spans:
        if span[NAME] == "cli.main" and span[NOTE] and span[NOTE][1] == 0 and span[NOTE][0] in per_command:
            per_command[span[NOTE][0]].append(span[END] - span[START])
    for command, took in per_command.items():
        m[f"cli.{command}.p50_s"] = statistics.median(took) if took else 0.0
    return m
