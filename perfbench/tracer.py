"""Spans around calls into afrelay, recorded from outside the package.

Every layer function is wrapped in place: each module attribute that holds
the original function (including `from x import y` bindings and aliases such
as `cli.phase_report`) is replaced by a wrapper, so callers that look the
name up at call time go through the span. Spans live in memory as
[name, start, end, parent, (work key, amount) or None] and are written out
when the run ends.

A call into a layer made while the innermost open span already belongs to
that layer (one_minus_x_k1 -> bessel_k1, outage_floor -> outage_fg_floor)
is folded into the open span, so `calls` counts entries into the layer.

Work inside `--workers` child processes is invisible: the children inherit
the wrappers, but their spans stay in their own memory.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np


def _protocol_layer(args, kwargs):
    protocol = args[0] if args else kwargs["protocol"]
    return "outage.fg" if str(protocol).lower() == "fg" else "outage.vg"


def _quad_evals(args, kwargs, result):
    return result.evaluations


def _size_of_first(args, kwargs, result):
    return int(np.size(args[0]))


def _blocks(args, kwargs, result):
    return int(math.prod(np.shape(args[0])[:-1]))


def _size_of_result(args, kwargs, result):
    return int(np.size(result))


def _one(args, kwargs, result):
    return 1


# (layer, defining module, function names, work counter). A layer given as a
# function picks its name from the call's arguments. A work counter is a
# (key, function of the call's args, kwargs and result) pair. Every layer
# named here also counts its calls, the entries into the layer.
LAYER_FUNCTIONS = (
    ("special_math.quad", "special_math", ("integrate_semi_infinite",), ("evals", _quad_evals)),
    ("special_math.k1", "special_math", ("bessel_k1", "one_minus_x_k1"), None),
    ("special_math.dft", "special_math", ("unitary_dft", "unitary_idft"),
     ("points", _size_of_first)),
    ("bussgang.sel_params", "bussgang", ("sel_params",), None),
    ("bussgang.sel_apply", "bussgang", ("sel_apply",), ("samples", _size_of_first)),
    ("link_budget.build_budget", "link_budget", ("build_budget",), None),
    ("link_budget.gain", "link_budget", ("gain_fg", "gain_vg"), None),
    ("link_budget.sndr", "link_budget", ("sndr",), ("elements", _size_of_result)),
    (_protocol_layer, "outage", ("exact_outage",), ("points", _one)),
    ("outage.fg", "outage", ("outage_fg",), ("points", _one)),
    ("outage.vg", "outage", ("outage_vg",), ("points", _one)),
    ("outage.expansions", "outage",
     ("small_gamma_expansion", "outage_asymptotic", "outage_floor", "outage_fg_floor"), None),
    ("outage.diversity_fit", "outage", ("diversity_fit",), None),
    ("epsilon_critical.report", "epsilon_critical", ("report",), None),
    ("epsilon_critical.threshold", "epsilon_critical", ("threshold",), None),
    ("simulator.waveform_chain", "simulator", ("waveform_chain",), ("blocks", _blocks)),
    ("simulator.gen_channel", "simulator", ("gen_channel",), None),
    ("simulator.generator", "simulator", ("generator",), None),
    ("simulator.measure_sndr", "simulator", ("measure_sndr",), None),
    ("simulator.waveform_outage", "simulator", ("waveform_outage",), None),
    ("simulator.fg_stationarity_check", "simulator", ("fg_stationarity_check",), None),
    ("cli.main", "cli", ("main",), None),
    ("cli.subcommand.outage_sweep", "cli", ("cmd_outage_sweep",), None),
    ("cli.subcommand.power_sweep", "cli", ("cmd_power_sweep",), None),
    ("cli.subcommand.thresholds", "cli", ("cmd_thresholds",), None),
    ("cli.subcommand.validate", "cli", ("cmd_validate",), None),
)

POOL_LAYER = "cli.pool"
LAYERS = tuple(dict.fromkeys(layer for layer, _, _, _ in LAYER_FUNCTIONS if isinstance(layer, str)))


class Tracer:
    """Installs the wrappers, records spans, and removes the wrappers again."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self._patches = []

    def install(self) -> None:
        homes = dict.fromkeys(home for _, home, _, _ in LAYER_FUNCTIONS)
        modules = [self.package] + [getattr(self.package, home) for home in homes]
        for layer, home, names, work in LAYER_FUNCTIONS:
            for name in names:
                original = getattr(getattr(self.package, home), name)
                wrapper = self._wrap(layer, original, work)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        cli = self.package.cli
        real_pool = cli.Pool
        self._patches.append((cli, "Pool", real_pool))

        def traced_pool(*args, **kwargs):
            pool = real_pool(*args, **kwargs)
            return _TracedPool(pool, self._wrap(POOL_LAYER, pool.map, None))

        cli.Pool = traced_pool

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, layer, fn, work):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            spans = tracer.spans
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[4] = (work[0], work[1](args, kwargs, result))
            return result

        return wrapper


class _TracedPool:
    """multiprocessing.Pool stand-in whose map() is a `cli.pool` span."""

    def __init__(self, pool, traced_map):
        self._pool = pool
        self.map = traced_map

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        return self._pool.__exit__(*exc)


def aggregate(spans) -> dict:
    """Per-layer calls, self time and work counts of one round's spans.

    Self time is a span's duration minus the durations of its direct
    children. Quadrature evaluations are also credited to the nearest
    enclosing `outage.fg` span, for evaluations per fixed-gain point.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    layers = {}
    for i, (name, start, end, parent, work) in enumerate(spans):
        agg = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child[i]
        agg["total_s"] += end - start  # nested calls into a layer never open a span
        if work:
            key, value = work
            agg[key] = agg.get(key, 0) + value
        if name == "special_math.quad" and work:
            p = parent
            while p >= 0 and spans[p][0] != "outage.fg":
                p = spans[p][3]
            if p >= 0:
                fg = layers.setdefault("outage.fg", {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                fg["quad_evals"] = fg.get("quad_evals", 0) + work[1]
    return layers


# -- per-layer metrics of a traced run ----------------------------------------

# (layer, work key) pairs reported as counts per round
COUNT_METRICS = tuple((layer, "calls") for layer in LAYERS) + tuple(
    (layer, work[0]) for layer, _, _, work in LAYER_FUNCTIONS
    if isinstance(layer, str) and work is not None)

# counts a workload computes from the arguments it passes, not from spans
WORKLOAD_COUNTS = ("simulator.mc.trials", "simulator.mc.comparisons", "cli.output.bytes")

# layers reported as <layer>.self_share: self time over the traced round's
# wall; the cli layers are summed into one cli.self_share
SELF_LAYERS = tuple(layer for layer in LAYERS if not layer.startswith("cli."))
CLI_LAYERS = tuple(layer for layer in LAYERS if layer.startswith("cli."))
SUBCOMMAND_LAYERS = tuple(layer for layer in CLI_LAYERS if layer.startswith("cli.subcommand."))


def layer_metrics(rounds) -> dict:
    """Per-layer metrics from traced rounds given as (wall_s, layers, counts).

    Counts come from the first traced round; they repeat exactly in every
    round, since each round runs the same op mix on inputs of the same size.
    Shares are medians over the traced rounds; trace.wall_s is their mean.
    """
    _, first, counts = rounds[0]
    out = {}
    for layer, key in COUNT_METRICS:
        out[f"{layer}.{key}"] = first.get(layer, {}).get(key, 0)
    fg = first.get("outage.fg", {})
    out["outage.fg.evals_per_point"] = (fg.get("quad_evals", 0) / fg["points"]
                                        if fg.get("points") else 0.0)
    for key in WORKLOAD_COUNTS:
        out[key] = counts.get(key, 0)

    def share(fn):
        return float(np.median([fn(layers) / wall for wall, layers, _ in rounds]))

    def get(layers, layer, key):
        return layers.get(layer, {}).get(key, 0.0)

    for layer in SELF_LAYERS:
        out[f"{layer}.self_share"] = share(lambda ls, layer=layer: get(ls, layer, "self_s"))
    out["cli.self_share"] = share(lambda ls: sum(get(ls, c, "self_s") for c in CLI_LAYERS))
    for layer in SUBCOMMAND_LAYERS:
        out[f"{layer}.share"] = share(lambda ls, layer=layer: get(ls, layer, "total_s"))
    out["cli.pool.wait_share"] = share(lambda ls: get(ls, POOL_LAYER, "total_s"))
    out["trace.wall_s"] = float(np.mean([wall for wall, _, _ in rounds]))
    return out


def layer_unit(name: str) -> str:
    if name == "trace.wall_s":
        return "s"
    if name == "outage.fg.evals_per_point":
        return "evals/point"
    if name.endswith("share") or name.endswith("ratio"):
        return "ratio"
    return "count"
