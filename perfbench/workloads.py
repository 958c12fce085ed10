"""The three benchmark workloads: inputs from the seed, the op mix, the gate.

A round is one pass over the workload's fixed op mix; the harness repeats
rounds until the run's time is used. Each round reports its rates as
(units, seconds) pairs, summed over the run before dividing. An op is one call of a fixed size into
the workload's main public function; op latencies feed op_p50_s and
op_tail_s. Every afrelay function is looked up on its module at call time,
so the tracer's wrappers see the benchmark's own calls.

The gates run after the timed region. Each checked call is one attempted
item. Problems are of three kinds:

* "defect": an output breaks its contract. The item counts as failed and
  the run is not correct.
* "known": a defect listed in KNOWN_DEFECTS. The item counts as flagged: it
  is reported and counted in failed_ratio, and no input is chosen to avoid
  it, but it is neither a failed item nor a reason to call the run incorrect.
* "stat": a statistical check outside 3 sigma but inside 5 sigma. The item
  counts as flagged, since a fair test lands there now and then; a
  deviation beyond 5 sigma is a defect.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import os
import re
import time

import numpy as np

KNOWN_DEFECTS = {
    "small_gamma_guard": (
        "small_gamma_expansion guards only Z*gamma < 1, so the published "
        "po_small_gamma column leaves [0, 1] (or turns non-monotone) near 30 dB; "
        "ROADMAP item 4"
    ),
    "validate_limiter_eta": (
        "`afrelay validate` checks the relay limiter's eta at clip ratio 8 from "
        "2^20 plain Gaussian samples (~350 clip events) against a 25% tolerance; "
        "the estimate misses it on about 1 seed in 20 (15 of 300 measured)"
    ),
}

# Relative standard deviation of that eta estimate, measured over 300 seeds.
# A relay-limiter FAIL within 5 of these is the known defect; further off, or
# a FAIL of the zeta check or of the source limiter, is a defect.
RELAY_ETA_REL_SD = 0.115

# Quadrature results carry an absolute error of up to tol = 1e-10 each, so two
# neighbouring exact values may step down by up to twice that.
MONOTONE_SLACK = 2e-10

INF = math.inf
FIG2 = (5.0, 8.0)
CLIP_CONFIGS = (("fig2", 5.0, 8.0), ("relay_only", INF, 8.0),
                ("source_only", 5.0, INF), ("linear", INF, INF))


def derived_seed(seed: int, *keys: int) -> int:
    """A 63-bit seed for one purpose (and call), so streams of different purposes never meet."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(2, np.uint32)
    return (int(state[0]) << 31) ^ int(state[1])


def db_grid(start: float, step: float, stop: float) -> np.ndarray:
    return start + step * np.arange(int(round((stop - start) / step)) + 1)


class Gate:
    """Counts checked items and classifies their problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.flagged = 0
        self.problems = {k: collections.Counter() for k in ("defect", "known", "stat")}

    def item(self, problems, times: int = 1) -> None:
        """Record a checked item, run `times` times, given its (kind, text) problems."""
        self.attempted += times
        if any(kind == "defect" for kind, _ in problems):
            self.failed += times
        elif problems:
            self.flagged += times
        for kind, text in problems:
            self.problems[kind][text] += times

    def stat(self, what: str, dev: float, sigma: float) -> None:
        z = dev / sigma if sigma > 0.0 else (0.0 if dev == 0.0 else INF)
        if z <= 3.0:
            self.item([])
        else:
            self.item([("defect" if z > 5.0 else "stat", f"{what}: {z:.1f} sigma")])

    @property
    def correct(self) -> bool:
        return not self.problems["defect"]

    @property
    def problem_ratio(self) -> float:
        """Items with any problem, known defects included, over attempted items."""
        return (self.failed + self.flagged) / self.attempted

    def summary(self) -> dict:
        """Counts, plus up to 20 distinct problems of each kind with their counts."""
        out = {"attempted": self.attempted, "failed": self.failed, "flagged": self.flagged,
               "correct": self.correct}
        for kind, found in self.problems.items():
            out[kind] = dict(found.most_common(20))
        return out


def probability_problems(name, values, slack=0.0, known=None):
    """[0, 1] and monotone-in-gamma checks on one published column.

    `values` may hold None where the column is left empty.
    """
    kind = "known" if known else "defect"
    tag = known or name
    out = []
    vals = [v for v in values if v is not None]
    bad = [v for v in vals if not (0.0 <= v <= 1.0)]
    if bad:
        out.append((kind, f"{tag}: {name} has {len(bad)} values outside [0, 1]"))
    drops = [b - a for a, b in zip(vals, vals[1:]) if b < a - slack]
    if drops:
        out.append((kind, f"{tag}: {name} decreases in gamma at {len(drops)} steps"))
    return out


# -- analytic -----------------------------------------------------------------


class Analytic:
    """Exact outage tables, floors and expansions, power sweeps, reports."""

    throughput = "fg_points_per_s"

    def __init__(self, pkg, seed: int, size: str):
        self.pkg = pkg
        rng = np.random.default_rng(derived_seed(seed, 1))
        offset = float(rng.uniform(0.0, 20.0))
        if size == "tiny":
            self.gamma_db = db_grid(0.0, 2.5, 30.0)
            configs = (CLIP_CONFIGS[0], CLIP_CONFIGS[3])
            bands = 1
            self.ps_db = db_grid(40.0, 5.0, 80.0)
        else:
            self.gamma_db = db_grid(0.0, 0.25, 30.0)
            configs = CLIP_CONFIGS
            bands = 6
            self.ps_db = db_grid(40.0, 2.5, 80.0)
        self.gammas = [float(g) for g in 10.0 ** (self.gamma_db / 10.0)]
        # 30 dB is always present: the small-gamma column's known defect shows
        # there. The other powers form a 5 dB lattice over 30..150 dB, shifted
        # by the seed and interleaved across the clip configurations, so the
        # round's cost hardly depends on the seed.
        self.tables = []
        for c, (label, clip_s, clip_r) in enumerate(configs):
            powers = [30.0] + [30.0 + (offset + 5.0 * c) % 20.0 + 20.0 * k for k in range(bands)]
            for p_db in powers:
                self.tables.append((label, clip_s, clip_r, p_db))
        self.fits = [(label, clip_s, clip_r, proto)
                     for label, clip_s, clip_r in configs for proto in ("vg", "fg")]
        self.sizes = {
            "gamma_points": len(self.gammas),
            "gamma_db": [float(self.gamma_db[0]), float(self.gamma_db[-1])],
            "tables_per_round": len(self.tables),
            "table_powers_db": sorted({round(t[3], 6) for t in self.tables}),
            "diversity_fits_per_round": len(self.fits),
            "fit_power_grid_db": [float(self.ps_db[0]), float(self.ps_db[-1]), len(self.ps_db)],
            "reports_per_round": len(self.tables),
        }
        self.first = self.last = None
        self.repeats_differ = 0

    def _cfg(self, clip_s, clip_r, p_db):
        return self.pkg.link_budget.NetworkConfig(
            p_s=10.0 ** (p_db / 10.0), clip_ratio_s=clip_s, clip_ratio_r=clip_r)

    def _table(self, budget, protocol):
        o = self.pkg.outage
        exact = [o.exact_outage(protocol, g, budget) for g in self.gammas]
        floor = [o.outage_floor(protocol, g, budget) for g in self.gammas]
        small = []
        for g in self.gammas:
            try:
                small.append(o.small_gamma_expansion(protocol, g, budget))
            except (self.pkg.errors.DomainError, self.pkg.errors.RegimeError):
                small.append(None)
        return exact, floor, small

    def warm_up(self):
        budget = self.pkg.link_budget.build_budget(self._cfg(*FIG2, 30.0))
        for proto in ("vg", "fg"):
            self.pkg.outage.exact_outage(proto, 1.0, budget)
        self.pkg.epsilon_critical.report(budget, include_exact_outage=True)

    def run_round(self) -> dict:
        clock = time.perf_counter
        lb, o = self.pkg.link_budget, self.pkg.outage
        ops, outputs = [], []
        t_vg = t_fg = 0.0
        for label, clip_s, clip_r, p_db in self.tables:
            t0 = clock()
            budget = lb.build_budget(self._cfg(clip_s, clip_r, p_db))
            vg = self._table(budget, "vg")
            t1 = clock()
            fg = self._table(budget, "fg")
            t2 = clock()
            ops.append(t2 - t0)
            t_vg += t1 - t0
            t_fg += t2 - t1
            rep = self.pkg.epsilon_critical.report(budget, include_exact_outage=True)
            outputs.append((vg, fg, rep))
        fits = []
        ps_lin = 10.0 ** (self.ps_db / 10.0)
        for label, clip_s, clip_r, proto in self.fits:
            cfg = self._cfg(clip_s, clip_r, 0.0)
            asym = o.outage_asymptotic(proto, 1.0, ps_lin, cfg)
            fit = o.diversity_fit(proto, 1.0, cfg, ps_lin)
            fits.append(([a.p_outage for a in asym], fit))
        points = len(self.tables) * len(self.gammas)
        record = {
            "ops": ops,
            "rates": {"vg_points_per_s": (points, t_vg), "fg_points_per_s": (points, t_fg)},
            "counts": {},
        }
        self.last = (outputs, fits)
        return record

    def settle(self) -> None:
        """Compare the round just run with the first one, outside the timer."""
        if self.first is None:
            self.first = self.last
        elif repr(self.last) != repr(self.first):
            self.repeats_differ += 1

    def gate(self, gate: Gate, n_rounds: int) -> None:
        outputs, fits = self.first
        q = self.pkg.outage
        for (label, clip_s, clip_r, p_db), (vg, fg, rep) in zip(self.tables, outputs):
            budget = self.pkg.link_budget.build_budget(self._cfg(clip_s, clip_r, p_db))
            where = f"{label}@{p_db:.2f}dB"
            problems = []
            for proto, (exact, floor, small) in (("vg", vg), ("fg", fg)):
                problems += probability_problems(f"{where} {proto} po_analytic", exact, MONOTONE_SLACK)
                problems += probability_problems(f"{where} {proto} po_floor", floor)
                problems += probability_problems(f"{where} {proto} po_small_gamma", small,
                                                 known="small_gamma_guard")
            for i in np.linspace(0, len(self.gammas) - 1, 5).astype(int):
                p_q = q.outage_vg_quadrature(self.gammas[i], budget).p_outage
                if not abs(p_q - vg[0][i]) <= 1e-6:
                    problems.append(("defect", f"{where}: vg closed form {vg[0][i]:.3e} vs "
                                               f"quadrature {p_q:.3e}"))
            for proto, r in rep.items():
                if not r.gamma_crit > 0.0:
                    problems.append(("defect", f"{where}: {proto} threshold {r.gamma_crit}"))
                if r.exact_outage_below is not None and not 0.0 <= r.exact_outage_below <= 1.0:
                    problems.append(("defect", f"{where}: {proto} outage below threshold "
                                               f"{r.exact_outage_below}"))
            gate.item(problems, n_rounds)
        for (label, clip_s, clip_r, proto), (asym, fit) in zip(self.fits, fits):
            # over the power grid, so it may only fall
            problems = probability_problems(f"{label} {proto} po_asymptotic", asym[::-1])
            if not (math.isfinite(fit.slope) and 0.0 <= fit.r_squared <= 1.0):
                problems.append(("defect", f"{label} {proto}: diversity fit {fit}"))
            gate.item(problems, n_rounds)
        if self.repeats_differ:
            gate.item([("defect", f"{self.repeats_differ} rounds gave different outputs")])


# -- waveform -----------------------------------------------------------------


class Waveform:
    """The acceptance-3 waveform chain: outage draws, SNDR, stationarity."""

    throughput = "blocks_per_s"

    def __init__(self, pkg, seed: int, size: str):
        self.pkg = pkg
        sim, lb = pkg.simulator, pkg.link_budget
        if size == "tiny":
            n, l, draws, blocks, ops, sndr_blocks = 64, 16, 1, 24, 2, 100
            taps, n_cv, n_real = (1, 16), 64, 4
        else:
            n, l, draws, blocks, ops, sndr_blocks = 512, 32, 2, 96, 4, 256
            taps, n_cv, n_real = (1, 2, 4, 8, 16, 32, 64), 256, 40
        self.n, self.l, self.draws, self.blocks = n, l, draws, blocks
        self.ops_per_protocol, self.sndr_blocks = ops, sndr_blocks
        self.taps, self.n_real = taps, n_real
        self.gammas = [2.293, 8.989, 24.625]  # analytic vg outage ~ 0.05 / 0.2 / 0.5
        cfg = lb.NetworkConfig

        def fig2(snr_db, **kw):
            return lb.build_budget(cfg(p_s=10.0 ** (snr_db / 10.0), clip_ratio_s=5.0,
                                       clip_ratio_r=8.0, **kw))

        self.b20 = fig2(20.0, n_subcarriers=n, n_taps=l)
        self.b25 = fig2(25.0, n_subcarriers=n, n_taps=l)
        self.b_cv = fig2(20.0, n_subcarriers=n_cv)
        self.seed = seed
        self.channel = sim.gen_channel(l, n, 1.0, 1.0, rng=sim.Rng(derived_seed(seed, 21), 0))
        self.streams = {"outage": 0, "sndr": 0, "cv": 0}
        self.sizes = {
            "n_subcarriers": n, "n_taps": l, "gammas": self.gammas,
            "waveform_outage_ops_per_round": 2 * ops, "draws_per_op": draws,
            "blocks_per_draw": blocks, "measure_sndr_blocks": sndr_blocks,
            "stationarity_taps": list(taps), "stationarity_n": n_cv,
            "stationarity_realizations": n_real,
        }
        self.outage = {p: [] for p in ("vg", "fg")}  # (ci_low, p_hat, ci_high) per op
        self.pending = []
        self.sndr_dev = []
        self.cv = []

    def _rng(self, purpose):
        # a seed of its own for every call, so a run may make any number of rounds
        k = self.streams[purpose] = self.streams[purpose] + 1
        code = {"outage": 22, "sndr": 23, "cv": 24}[purpose]
        return self.pkg.simulator.Rng(derived_seed(self.seed, code, k), 0)

    def warm_up(self):
        sim = self.pkg.simulator
        for proto in ("vg", "fg"):
            sim.waveform_outage(proto, self.gammas, self.b20, 1, self.blocks, self._rng("outage"))
        sim.measure_sndr(self.channel, self.b25, "fg", 100, self._rng("sndr"))
        sim.fg_stationarity_check(self.taps[-1], self.b_cv, 2, self._rng("cv"))

    def run_round(self) -> dict:
        clock = time.perf_counter
        sim = self.pkg.simulator
        ops = []
        chain_s = 0.0
        for proto in ("vg", "fg"):
            for _ in range(self.ops_per_protocol):
                rng = self._rng("outage")
                t0 = clock()
                stats = sim.waveform_outage(proto, self.gammas, self.b20, self.draws,
                                            self.blocks, rng)
                ops.append(clock() - t0)
                self.outage[proto].append([(s.ci_low, s.p_hat, s.ci_high) for s in stats])
        chain_s += sum(ops)
        for proto in ("vg", "fg"):
            t0 = clock()
            lam = sim.measure_sndr(self.channel, self.b25, proto, self.sndr_blocks,
                                   self._rng("sndr"), batch=256)
            chain_s += clock() - t0
            self.pending.append((proto, lam))
        for taps in self.taps:
            self.cv.append(sim.fg_stationarity_check(taps, self.b_cv, self.n_real, self._rng("cv")))
        blocks = (2 * self.ops_per_protocol * self.draws * self.blocks) + 2 * self.sndr_blocks
        return {"ops": ops, "rates": {"blocks_per_s": (blocks, chain_s)}, "counts": {}}

    def settle(self) -> None:
        for proto, lam in self.pending:
            model = self.pkg.simulator.model_sndr(self.channel, self.b25, proto)
            self.sndr_dev.append((proto, float(np.percentile(np.abs(lam / model - 1.0), 95))))
        self.pending.clear()

    def gate(self, gate: Gate, n_rounds: int) -> None:
        o, sim = self.pkg.outage, self.pkg.simulator
        for stats in self.outage["vg"] + self.outage["fg"]:
            problems = probability_problems("waveform p_hat", [p for _, p, _ in stats])
            for lo, p, hi in stats:
                if not 0.0 <= lo <= p <= hi <= 1.0:
                    problems.append(("defect", f"waveform interval {lo}, {p}, {hi}"))
            gate.item(problems)
        # Pooled over every op of the run: op means are iid averages of
        # `draws` channel draws, so their spread gives the draw-level sigma.
        for proto, exact in (("vg", o.outage_vg), ("fg", o.outage_fg)):
            hats = np.asarray(self.outage[proto])[:, :, 1]
            if hats.shape[0] < 2:
                continue
            for j, g in enumerate(self.gammas):
                pred = sim.estimator_consistent_outage(
                    lambda x: exact(x, self.b20).p_outage, g, self.blocks)
                sigma = float(np.std(hats[:, j], ddof=1)) / math.sqrt(hats.shape[0])
                gate.stat(f"waveform {proto}@{g}: {hats[:, j].mean():.4f} vs {pred:.4f}",
                          abs(float(hats[:, j].mean()) - pred), sigma)
        # the tolerance `afrelay validate` applies to the same comparison
        tol = 0.10 + 2.0 * math.sqrt(2.0 / self.sndr_blocks)
        for proto, p95 in self.sndr_dev:
            # validate reports fixed gain below 16 taps as informational only
            if p95 <= tol or (self.l < 16 and proto == "fg"):
                gate.item([])
            else:
                gate.item([("defect", f"measure_sndr {proto}: p95 deviation {p95:.3f} > {tol:.3f}")])
        for cv in self.cv:
            gate.item([] if math.isfinite(cv) and cv > 0.0 else [("defect", f"stationarity CV {cv}")])


# -- cli ----------------------------------------------------------------------

_VALIDATE_LIMITER = re.compile(r"limiter\[(\w+)\]: zeta ([0-9.e+-]+) vs ([0-9.e+-]+), "
                               r"eta ([0-9.e+-]+) vs ([0-9.e+-]+) -> FAIL")
_VALIDATE_MC = re.compile(r"outage-mc\[.*\]: mc ([0-9.e+-]+) vs analytic ([0-9.e+-]+) "
                          r"\(3sigma ([0-9.e+-]+)\) -> FAIL")
SWEEP_HEADER = ("gamma_th_db,po_analytic,po_floor,po_small_gamma,po_mc,ci_low,ci_high,"
                "n_trials,seed")


class Cli:
    """afrelay.cli.main in-process, writing to temp files as a user would."""

    throughput = "mc_trials_per_s"

    def __init__(self, pkg, seed: int, size: str, tmp_dir: str):
        self.pkg = pkg
        self.tmp = tmp_dir
        if size == "tiny":
            grid, trials, pair_trials, ops = "0:2.5:30", 20_000, 40_000, 2
            ps_db = "40:5:80"
            validate_extra = ["--blocks", "100", "--trials", "1e4", "--n", "64", "--taps", "16"]
        else:
            grid, trials, pair_trials, ops = "0:0.25:30", 500_000, 2_000_000, 8
            ps_db = "40:2.5:80"
            validate_extra = []
        self.grid_points = len(db_grid(*[float(x) for x in grid.split(":")]))
        fig2 = ["--clip-s", "5", "--clip-r", "8"]
        s = [str(derived_seed(seed, 30 + k)) for k in range(ops + 3)]
        snrs = (30, 40, 50, 60)
        self.ops = [["outage-sweep", "--protocol", "vg", *fig2, "--snr-db", str(snrs[i % 4]),
                     "--gamma-db", grid, "--trials", str(trials), "--seed", s[i],
                     "--workers", "1", "--out", self._path(f"op{i}.csv")] for i in range(ops)]
        pair = ["outage-sweep", "--protocol", "vg", *fig2, "--snr-db", "30", "--gamma-db", grid,
                "--trials", str(pair_trials), "--seed", s[ops]]
        fg = ["outage-sweep", "--protocol", "fg", *fig2, "--snr-db", "30", "--gamma-db", grid,
              "--trials", str(trials), "--seed", s[ops + 1]]
        self.pairs = [(pair, "vg"), (fg, "fg")]
        self.power = [["power-sweep", "--protocol", p, "--clip-r", "5", "--gamma-db", "0",
                       "--ps-db", ps_db, "--out", self._path(f"power-{p}.csv")] for p in ("vg", "fg")]
        self.thresholds = ["thresholds", *fig2, "--snr-db", "70", "--out", self._path("thr.json")]
        self.validate = ["validate", "--protocol", "vg", *fig2, "--snr-db", "25",
                         "--seed", s[ops + 2], *validate_extra]
        self.trials = trials
        self.sizes = {
            "gamma_grid": grid, "gamma_points": self.grid_points, "sweep_ops_per_round": ops,
            "op_trials": trials, "scaling_pair_trials": pair_trials, "workers": [1, 2],
            "power_grid_db": ps_db, "validate": " ".join(self.validate[1:]),
        }
        # the cli's Monte Carlo work per round, from the arguments it is given
        validate_trials = 10_000 if size == "tiny" else 100_000
        sweep_trials = ops * trials + 2 * pair_trials + 2 * trials
        self.mc = {"simulator.mc.trials": sweep_trials + validate_trials,
                   "simulator.mc.comparisons": sweep_trials * self.grid_points + 3 * validate_trials}
        self.first = self.last = None
        self.repeats_differ = 0

    def _path(self, name):
        return os.path.join(self.tmp, name)

    def _main(self, argv):
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.pkg.cli.main(list(argv))
        return code, time.perf_counter() - t0, buf.getvalue()

    def _read(self, path) -> bytes:
        with open(path, "rb") as fh:
            return fh.read()

    def warm_up(self):
        # one small sweep in-process: the rounds start their own worker pools
        import multiprocessing.pool  # noqa: F401  (what the first pool would import)

        self._main(["outage-sweep", "--protocol", "vg", "--gamma-db", "0:10:30", "--trials", "2000",
                    "--workers", "1", "--out", self._path("warm.csv")])
        self._main(["thresholds", "--out", self._path("warm.json")])

    def run_round(self) -> dict:
        ops, outputs = [], []
        out_bytes = 0
        for argv in self.ops:
            code, dt, text = self._main(argv)
            ops.append(dt)
            data = self._read(argv[-1])
            out_bytes += len(data) + len(text)
            outputs.append(("sweep", argv, code, data))
        pair_s = {}
        for argv, proto in self.pairs:
            got = []
            for workers in ("1", "2"):
                path = self._path(f"pair-{proto}-w{workers}.csv")
                code, dt, text = self._main(argv + ["--workers", workers, "--out", path])
                data = self._read(path)
                out_bytes += len(data) + len(text)
                got.append((code, data))
                pair_s[(proto, workers)] = dt
            outputs.append(("pair", argv, got[0][0], got[0][1], got[1][0], got[1][1]))
        for argv in self.power:
            code, dt, text = self._main(argv)
            data = self._read(argv[-1])
            out_bytes += len(data) + len(text)
            outputs.append(("power", argv, code, data))
        code, dt, text = self._main(self.thresholds)
        data = self._read(self.thresholds[-1])
        out_bytes += len(data) + len(text)
        outputs.append(("thresholds", self.thresholds, code, data))
        code, validate_s, text = self._main(self.validate)
        out_bytes += len(text)
        outputs.append(("validate", self.validate, code, text))
        trials = len(self.ops) * self.trials
        self.last = outputs
        return {
            "ops": ops,
            "rates": {
                "mc_trials_per_s": (trials, sum(ops)),
                "mc_scaling_eff": (pair_s[("vg", "1")], 2.0 * pair_s[("vg", "2")]),
                "cli_validate_s": (validate_s, 1),
            },
            "counts": {**self.mc, "cli.output.bytes": out_bytes},
        }

    def settle(self) -> None:
        if self.first is None:
            self.first = self.last
        elif self.last != self.first:
            self.repeats_differ += 1

    def gate(self, gate: Gate, n_rounds: int) -> None:
        for out in self.first:
            kind, argv = out[0], out[1]
            if kind == "sweep":
                problems = self._sweep_problems(argv, out[2], out[3])
            elif kind == "pair":
                problems = self._sweep_problems(argv, out[2], out[3])
                problems += self._sweep_problems(argv, out[4], out[5])
                if out[3] != out[5]:
                    problems.append(("defect", f"{self._label(argv)}: --workers 1 and 2 differ"))
            elif kind == "power":
                problems = self._power_problems(argv, out[2], out[3])
            elif kind == "thresholds":
                problems = self._thresholds_problems(out[2], out[3])
            else:
                problems = self._validate_problems(out[2], out[3])
            gate.item(problems, n_rounds)
        if self.repeats_differ:
            gate.item([("defect", f"{self.repeats_differ} rounds gave different outputs")])

    @staticmethod
    def _label(argv) -> str:
        return " ".join(argv[:argv.index("--out")] if "--out" in argv else argv)

    def _sweep_problems(self, argv, code, data):
        where = self._label(argv)
        if code != 0:
            return [("defect", f"{where}: exit code {code}")]
        lines = data.decode().splitlines()
        proto = argv[argv.index("--protocol") + 1]
        if not (lines and lines[0].startswith("# threshold_db=") and
                lines[0].endswith(f"protocol={proto}") and lines[1] == SWEEP_HEADER):
            return [("defect", f"{where}: CSV preamble/header")]
        rows = [ln.split(",") for ln in lines[2:]]
        if len(rows) != self.grid_points or any(len(r) != 9 for r in rows):
            return [("defect", f"{where}: CSV shape")]
        trials = argv[argv.index("--trials") + 1]
        seed = argv[argv.index("--seed") + 1]
        if any(r[7] != trials or r[8] != seed for r in rows):
            return [("defect", f"{where}: n_trials/seed columns")]
        col = [[float(v) if v != "" else None for v in c] for c in zip(*rows)]
        problems = probability_problems(f"{where} po_analytic", col[1], MONOTONE_SLACK)
        problems += probability_problems(f"{where} po_floor", col[2])
        problems += probability_problems(f"{where} po_small_gamma", col[3],
                                         known="small_gamma_guard")
        problems += probability_problems(f"{where} po_mc", col[4])
        for lo, p, hi in zip(col[5], col[4], col[6]):
            if not 0.0 <= lo <= p <= hi <= 1.0:
                problems.append(("defect", f"{where}: interval {lo}, {p}, {hi}"))
                break
        return problems

    def _power_problems(self, argv, code, data):
        where = self._label(argv)
        if code != 0:
            return [("defect", f"{where}: exit code {code}")]
        lines = data.decode().splitlines()
        if lines[0] != "ps_db,po_exact,po_asymptotic,ratio" or not lines[-1].startswith("# summary "):
            return [("defect", f"{where}: CSV header/trailer")]
        summary = json.loads(lines[-1][len("# summary "):])
        rows = [ln.split(",") for ln in lines[1:-1]]
        problems = []
        if not math.isfinite(summary["slope"]) or any(len(r) != 4 for r in rows):
            problems.append(("defect", f"{where}: summary or row shape"))
        for c in (1, 2):
            vals = [float(r[c]) for r in rows]
            if any(not 0.0 <= v <= 1.0 for v in vals):
                problems.append(("defect", f"{where}: column {c} outside [0, 1]"))
        return problems

    def _thresholds_problems(self, code, data):
        if code != 0:
            return [("defect", f"thresholds: exit code {code}")]
        payload = json.loads(data)
        problems = []
        for proto in ("fg", "vg"):
            below = payload[proto]["exact_outage_below"]
            if below is not None and not 0.0 <= below <= 1.0:
                problems.append(("defect", f"thresholds {proto}: outage below {below}"))
        return problems

    def _validate_problems(self, code, text):
        last = text.strip().splitlines()[-1] if text.strip() else ""
        if code == 0 and last == "validate: PASS":
            return []
        if code != 1:
            return [("defect", f"validate: exit code {code}")]
        problems = []
        for line in text.splitlines():
            if not line.endswith("FAIL"):
                continue
            lim = _VALIDATE_LIMITER.search(line)
            mc = _VALIDATE_MC.search(line)
            if lim and lim.group(1) == "relay":
                zeta_hat, zeta, eta_hat, eta = (float(x) for x in lim.groups()[1:])
                z = abs(eta_hat / eta - 1.0) / RELAY_ETA_REL_SD
                if abs(zeta_hat - zeta) <= 2e-3 and z <= 5.0:
                    problems.append(("known", f"validate_limiter_eta: {line}"))
                else:
                    problems.append(("defect", f"validate: {line} ({z:.1f} sigma on eta)"))
            elif mc:
                p_mc, p_an, three_sigma = (float(x) for x in mc.groups())
                z = abs(p_mc - p_an) / (three_sigma / 3.0)
                problems.append(("defect" if z > 5.0 else "stat", f"validate: {line}"))
            else:
                problems.append(("defect", f"validate: {line}"))
        return problems or [("defect", f"validate: exit code 1 without a FAIL line")]


WORKLOADS = {"analytic": Analytic, "waveform": Waveform, "cli": Cli}
