"""Batch front end.

Subcommands:

  outage-sweep   outage vs protection threshold, analytic + Monte Carlo
  power-sweep    outage vs source power, exact vs first-order expansion
  thresholds     phase-transition report for both protocols (JSON)
  validate       limiter / waveform-model / closed-form consistency suites

validate checks each limiter on a float stratified radius alone
(_limiter_check): an envelope limiter's zeta and eta depend on |x| only, so
no phase is drawn, and both are sums over that radius.

Configuration comes from a flat JSON file (--config) with explicit flags
taking precedence. Sweep math is linear internally; dB appears only at this
boundary. Outputs are byte identical for identical config and seed, also
under --workers parallelism: the simulator's Monte Carlo chunks, each with its
own counter-based stream, are mapped over a process pool and their integer
counts summed.

Exit codes: 0 success, 1 validation failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from multiprocessing import Pool

import numpy as np

from .bussgang import sel_params
from .epsilon_critical import _to_db, report as phase_report, threshold
from .errors import ConfigError, DomainError, RegimeError
from .link_budget import PROTOCOLS, NetworkConfig, build_budget
from .outage import (
    diversity_fit,
    exact_outage,
    outage_asymptotic,
    outage_floor,
    small_gamma_expansion,
)
from .simulator import (
    _CHUNK,
    Rng,
    SimStats,
    fg_stationarity_check,
    gen_channel,
    generator,
    mc_outage_sweep,
    measure_sndr,
    model_sndr,
)

# Grids beyond this are input errors: every published figure uses <= 121
# points, and each point costs one exact-outage evaluation.
_MAX_GRID_POINTS = 4096
# Size flags whose memory grows with their value: validate's channel holds
# n_subcarriers samples, and the Monte Carlo lists its 65 536-trial chunks up front.
_MAX_SUBCARRIERS = 2**14
_MAX_TRIALS = 10**10


@dataclass
class RunConfig:
    mu1: float = 1.0
    mu2: float = 1.0
    n0: float = 1.0
    snr_db: float = 30.0          # P_S/N_0 in dB; sets p_s = n0 * 10^(snr/10)
    p_ratio: float = 1.0
    clip_s: float = math.inf
    clip_r: float = math.inf
    n_subcarriers: int = 512
    n_taps: int = 32
    protocol: str = "vg"
    gamma_db: str = "0:0.25:30"   # start:step:stop for sweeps, single value otherwise
    ps_db: str = "40:2.5:80"
    trials: int = 100_000
    blocks: int = 2000
    seed: int = 1
    workers: int = 1
    out: str | None = None
    format: str = "csv"

    @property
    def p_0db(self) -> float:
        """The power that 0 dB stands for: n0, or 1 in a noiseless network."""
        return self.n0 if self.n0 > 0.0 else 1.0

    @property
    def p_s(self) -> float:
        return self.powers([self.snr_db], "snr_db", self.snr_db)[0]

    def powers(self, db, name: str, given) -> list[float]:
        """Source powers p_0db * 10^(db/10) as Python floats. One that underflows to 0
        is a ConfigError quoting name's given value; one past the float range is inf,
        which NetworkConfig names."""
        powers = [self.p_0db * p for p in _db_to_lin(db, name, given).tolist()]
        if 0.0 in powers:
            raise ConfigError(f"{name} is too small, got {given!r}")
        return powers

    def network(self, p_s: float | None = None) -> NetworkConfig:
        return NetworkConfig(
            mu1=self.mu1, mu2=self.mu2, n0=self.n0,
            p_s=self.p_s if p_s is None else p_s,
            p_ratio=self.p_ratio,
            clip_ratio_s=self.clip_s, clip_ratio_r=self.clip_r,
            n_subcarriers=self.n_subcarriers, n_taps=self.n_taps,
        )


def _parse_grid(spec: str, name: str) -> np.ndarray:
    """start:step:stop in dB: start, then every whole step up to stop, stop
    included when it lies on the grid (to within 1e-9 of a step)."""
    try:
        parts = [float(p) for p in str(spec).split(":")]
    except ValueError:
        raise ConfigError(f"{name} must be start:step:stop or a single number, got {spec!r}")
    if not all(map(math.isfinite, parts)):
        raise ConfigError(f"{name} needs finite values, got {spec!r}")
    if len(parts) == 1:
        return np.array(parts)
    if len(parts) != 3:
        raise ConfigError(f"{name} must be start:step:stop, got {spec!r}")
    start, step, stop = parts
    if step <= 0.0 or stop < start:
        raise ConfigError(f"{name} needs step > 0 and stop >= start, got {spec!r}")
    steps = (stop - start) / step + 1e-9  # whole steps are int(steps), never past stop
    if steps >= _MAX_GRID_POINTS:
        raise ConfigError(f"{name} has more than {_MAX_GRID_POINTS} points: {spec!r}")
    return start + step * np.arange(int(steps) + 1)


def _db_to_lin(db, name: str, given) -> np.ndarray:
    """10^(db/10) per element by Python's scalar power, so the bits do not rest on
    numpy's SIMD dispatch; past the float range, a ConfigError quoting name's given value."""
    db = np.asarray(db, dtype=float)
    try:
        return np.array([10.0 ** (d / 10.0) for d in db.ravel().tolist()]).reshape(db.shape)
    except OverflowError:
        raise ConfigError(f"{name} is too large, got {given!r}") from None


def _fmt(x) -> str:
    """One CSV cell: empty for None and NaN, a float to 12 significant digits."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return format(x, ".12g") if isinstance(x, float) else str(x)


def _json(obj, indent=None) -> str:
    """obj as JSON text. JSON has no inf or NaN: every non-finite float is null."""
    def finite(x):
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [finite(v) for v in x]
        return None if isinstance(x, float) and not math.isfinite(x) else x
    return json.dumps(finite(obj), indent=indent, allow_nan=False)


def _write(rc: RunConfig, result) -> None:
    """The one exit for results: text as it is, anything else as JSON, to --out or stdout."""
    text = result if isinstance(result, str) else _json(result, indent=2) + "\n"
    if rc.out is None:
        sys.stdout.write(text)
        return
    with open(rc.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _table(rc: RunConfig, header, rows, meta_key: str, meta: dict, head=(), tail=()):
    """rows as a JSON payload {meta_key: meta, "rows": [...]} under --format json,
    else as CSV text between the comment lines head and tail."""
    if rc.format == "json":
        return {meta_key: meta, "rows": [dict(zip(header, r)) for r in rows]}
    lines = [*head, ",".join(header), *(",".join(_fmt(v) for v in r) for r in rows), *tail]
    return "\n".join(lines) + "\n"


def _mc_sweep(gammas, budget, trials, rc: RunConfig) -> list[SimStats]:
    if rc.workers == 1:
        return mc_outage_sweep(rc.protocol, gammas, budget, trials, Rng(rc.seed))
    with Pool(min(rc.workers, os.cpu_count() or 1)) as pool:  # the output is the same at any size
        return mc_outage_sweep(rc.protocol, gammas, budget, trials, Rng(rc.seed), map_fn=pool.map)


# -- subcommands ---------------------------------------------------------------


def cmd_outage_sweep(rc: RunConfig) -> int:
    budget = build_budget(rc.network())
    gammas_db = _parse_grid(rc.gamma_db, "gamma_db")
    gammas = _db_to_lin(gammas_db, "gamma_db", rc.gamma_db)
    th_db = _to_db(threshold(rc.protocol, budget))
    mc = _mc_sweep(gammas, budget, rc.trials, rc) if rc.trials else [None] * gammas.size
    rows = []
    for g_db, g, s in zip(gammas_db, gammas, mc):
        p_an = exact_outage(rc.protocol, float(g), budget)
        floor = outage_floor(rc.protocol, float(g), budget)
        try:
            p_sg = small_gamma_expansion(rc.protocol, float(g), budget)
        except (DomainError, RegimeError):
            p_sg = None
        row_mc = (s.p_hat, s.ci_low, s.ci_high, s.n_trials) if s else (None,) * 4
        rows.append((float(g_db), p_an, floor, p_sg) + row_mc + (rc.seed,))
    header = ["gamma_th_db", "po_analytic", "po_floor", "po_small_gamma",
              "po_mc", "ci_low", "ci_high", "n_trials", "seed"]
    meta = {"threshold_db": th_db, "protocol": rc.protocol}
    head = [f"# threshold_db={_fmt(th_db)} protocol={rc.protocol}"]
    _write(rc, _table(rc, header, rows, "meta", meta, head=head))
    return 0


def cmd_power_sweep(rc: RunConfig) -> int:
    ps_db = _parse_grid(rc.ps_db, "ps_db")
    gamma_db = _parse_grid(rc.gamma_db, "gamma_db")
    if gamma_db.size != 1:
        raise ConfigError("power-sweep expects a single gamma_db value")
    gamma = float(_db_to_lin(gamma_db, "gamma_db", rc.gamma_db)[0])
    ps_grid = rc.powers(ps_db, "ps_db", rc.ps_db)
    # the grid sets p_s: --snr-db is not read
    cfg = rc.network(p_s=ps_grid[0])
    fit = diversity_fit(rc.protocol, gamma, cfg, ps_grid)
    asym = outage_asymptotic(rc.protocol, gamma, ps_grid, cfg)
    rows = []
    for p_db, p_s, a in zip(ps_db, ps_grid, asym):
        p_ex = exact_outage(rc.protocol, gamma, build_budget(rc.network(p_s=p_s)))
        ratio = p_ex / a.p_outage if a.p_outage else None
        rows.append((float(p_db), p_ex, a.p_outage, ratio))
    summary = {
        "protocol": rc.protocol,
        "gamma_th_db": float(gamma_db[0]),
        "slope": fit.slope,
        "r_squared": fit.r_squared,
    }
    header = ["ps_db", "po_exact", "po_asymptotic", "ratio"]
    tail = ["# summary " + _json(summary)]
    _write(rc, _table(rc, header, rows, "summary", summary, tail=tail))
    return 0


def cmd_thresholds(rc: RunConfig) -> int:
    """JSON whatever --format says: the report has no table form."""
    budget = build_budget(rc.network())
    reps = phase_report(budget, include_exact_outage=True)
    _write(rc, {**{p: asdict(r) for p, r in reps.items()}, "eps_star": budget.eps_star})
    return 0


def _stratified_radius(gen, n: int) -> np.ndarray:
    """n samples of |x| for x ~ CN(0, 1), as float64.

    Sample i is the stratified exponential radius sqrt(-log1p(-(i + u_i)/n)),
    which removes most of the spread in the few clip events a limiter's eta
    rests on. The u_i are gen's next n words, drawn _CHUNK at a time into the
    result, which is built in place.
    """
    r = np.empty(n)
    for start in range(0, n, _CHUNK):
        part = r[start:start + _CHUNK]
        gen.random(out=part)
        part += np.arange(start, start + part.size)
        part /= -n
        np.log1p(part, out=part)
        np.negative(part, out=part)
        np.sqrt(part, out=part)
    return r


def _limiter_check(seed: int, earlier: int, ratio: float) -> tuple[str, bool]:
    """One limiter's report line: zeta and eta from 2^20 clipped samples vs the closed form.

    An envelope limiter maps x to x min(|x|, a)/|x|, a = sqrt(ratio), so with
    r = |x| its zeta = sum r min(r, a) / sum r^2 and eta = sum (min(r, a) -
    zeta r)^2 / N depend on r alone (circular symmetry): r is
    _stratified_radius's and no phase is drawn. Its words follow those of the
    `earlier` clipping limiters before it on stream (seed, 11), each of which
    took 2N words (a radius and a phase per sample), N/2 Philox blocks. Each
    sum is an np.add.reduce per _CHUNK slice, the slice sums added exactly
    by math.fsum, so no BLAS call (whose bits follow its thread count) is made.
    """
    n = 1 << 20
    gen = generator(Rng(seed, 11))
    gen.bit_generator.advance(earlier * n // 2)
    r = _stratified_radius(gen, n)
    a = math.sqrt(ratio)

    def total(term) -> float:
        return math.fsum(np.add.reduce(term(r[i:i + _CHUNK])) for i in range(0, n, _CHUNK))

    zeta_hat = total(lambda s: s * np.minimum(s, a)) / total(np.square)
    eta_hat = total(lambda s: np.square(np.minimum(s, a) - zeta_hat * s)) / n
    p = sel_params(1.0, ratio)
    ok = abs(zeta_hat - p.zeta) <= 2e-3 and abs(eta_hat - p.eta) <= 0.25 * p.eta
    return (f"zeta {zeta_hat:.6f} vs {p.zeta:.6f}, "
            f"eta {eta_hat:.3e} vs {p.eta:.3e} -> {'ok' if ok else 'FAIL'}"), ok


def _check_waveform_range(budget, blocks: int) -> None:
    """Refuse a waveform check whose sums overflow, in one line naming the product.

    The relay sizes its gain from p_s |h1|^2 + n0 (the stationarity check's fixed gain
    from p_s mu1 + n0), and measure_sndr sums blocks values of |x|^2 = sigma_S^2 and of
    |y|^2, about p_ratio p_s |h2|^2 each. A gain |h|^2 is Exp(mu): of the at most
    2^14 * 202 gains validate draws, one past 64 mu has probability below 1e-21, so each
    gain is taken at 64 times its mean.
    """
    cfg = budget.config
    for name, factors in (("p_s * mu1 * 64", (cfg.p_s, cfg.mu1, 64)),
                          ("blocks * sigma_S^2", (blocks, budget.sel_s.sigma_sq)),
                          ("p_ratio * p_s * mu2 * blocks * 64",
                           (cfg.p_ratio, cfg.p_s, cfg.mu2, blocks, 64))):
        if not math.prod(factors) < math.inf:
            raise DomainError(f"validate's waveform sums overflow: {name} = "
                              + " * ".join(map(repr, factors)))


def cmd_validate(rc: RunConfig) -> int:
    failures = []
    notes = []
    lines = []
    budget = build_budget(rc.network())
    blocks = max(rc.blocks, 100)
    _check_waveform_range(budget, blocks)

    # limiter coefficients vs sampled clipped Gaussians
    earlier = 0
    for label, ratio in (("source", rc.clip_s), ("relay", rc.clip_r)):
        if math.isinf(ratio):
            lines.append(f"limiter[{label}]: linear node, skipped")
            continue
        line, ok = _limiter_check(rc.seed, earlier, ratio)
        earlier += 1
        lines.append(f"limiter[{label}]: {line}")
        if not ok:
            failures.append(f"limiter[{label}]")

    # waveform SNDR vs the per-subcarrier model; the tolerance budgets 10%
    # for the model plus two sigma of the block-limited estimator noise
    ch = gen_channel(rc.n_taps, rc.n_subcarriers, rc.mu1, rc.mu2, rng=Rng(rc.seed, 21))
    # at most 2^17 samples a batch: 256 blocks up to n = 512, fewer above, so the
    # batch's arrays do not grow with n
    batch = max(1, min(256, 2**17 // rc.n_subcarriers))
    lam_hat = measure_sndr(ch, budget, rc.protocol, blocks, Rng(rc.seed, 22), batch=batch)
    dev = np.abs(lam_hat / model_sndr(ch, budget, rc.protocol) - 1.0)
    p95 = float(np.percentile(dev, 95))
    tol = 0.10 + 2.0 * math.sqrt(2.0 / blocks)
    if rc.n_taps < 16 and rc.protocol == "fg":
        notes.append(
            f"sndr-model[{rc.protocol}]: {rc.n_taps} tap(s) < 16, fixed-gain model deviation "
            f"expected (p95 {p95:.3f}); informational only"
        )
    else:
        ok = p95 <= tol
        lines.append(f"sndr-model[{rc.protocol}]: p95 per-subcarrier deviation {p95:.4f} "
                     f"(tol {tol:.4f} at {blocks} blocks) -> {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"sndr-model[{rc.protocol}]")

    # closed form vs channel-level Monte Carlo
    trials = max(int(rc.trials), 10_000)
    gammas = [0.1, 1.0, 10.0]
    mc = _mc_sweep(gammas, budget, trials, rc)
    for g, s in zip(gammas, mc):
        p_an = exact_outage(rc.protocol, g, budget)
        sigma = math.sqrt(max(p_an * (1.0 - p_an), 1e-12) / trials)
        ok = abs(s.p_hat - p_an) <= 3.0 * sigma
        lines.append(
            f"outage-mc[{rc.protocol}, gamma={g:g}]: mc {s.p_hat:.5f} vs analytic {p_an:.5f} "
            f"(3sigma {3*sigma:.2e}) -> {'ok' if ok else 'FAIL'}"
        )
        if not ok:
            failures.append(f"outage-mc[gamma={g:g}]")

    # stationarity figure, informational
    cv = fg_stationarity_check(rc.n_taps, budget, 200, Rng(rc.seed, 31))
    notes.append(f"stationarity: relay input power CV {cv:.4f} at {rc.n_taps} tap(s)")

    verdict = "validate: " + ("PASS" if not failures else f"FAIL ({', '.join(failures)})")
    _write(rc, "\n".join([*lines, *notes, verdict]) + "\n")
    return 0 if not failures else 1


# -- argument handling ---------------------------------------------------------

def _to_int(value) -> int:
    """An integer, or an integral number such as 1e5; never a fraction."""
    if isinstance(value, int) or str(value).lstrip("-").isdigit():
        return int(value)  # exact at any size, unlike float
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(number)


# One cast per RunConfig field for flag strings and config values alike; float()
# reads inf in any case. Annotations are strings here; "str | None" casts to str.
_CASTS = {f.name: {"float": float, "int": _to_int}.get(f.type, str) for f in fields(RunConfig)}
_CHOICES = {"protocol": PROTOCOLS, "format": ("csv", "json")}


_FLAGS = {"n_subcarriers": "--n", "n_taps": "--taps"}  # the rest are --field-name
_HELP = {
    "snr_db": "source power over noise power, dB",
    "clip_s": "source clip ratio p_max/sigma^2 (inf = linear)",
    "gamma_db": "threshold grid start:step:stop in dB, or one value",
    "ps_db": "source power grid start:step:stop in dB",
    "trials": "Monte Carlo trials (0 disables MC columns)",
    "seed": "Monte Carlo seed, an integer in [0, 2^64)",
    "out": "output path (default stdout)",
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat JSON file with any of the long options")
    for name in _CASTS:
        flag = _FLAGS.get(name, "--" + name.replace("_", "-"))
        choices = _CHOICES.get(name)
        p.add_argument(flag, dest=name, help=" or ".join(choices) if choices else _HELP.get(name))


def _set_field(rc: RunConfig, key: str, value) -> None:
    try:
        if isinstance(value, bool):  # JSON true is no number, protocol or path
            raise TypeError(key)
        typed = _CASTS[key](value)
        if key in _CHOICES and typed not in _CHOICES[key]:
            raise ValueError(key)
        if key == "seed" and not 0 <= typed < 2**64:  # streams take it modulo 2^64
            raise ValueError(key)
        setattr(rc, key, typed)
    except (TypeError, ValueError):
        raise ConfigError(f"bad value for {key!r}: {value!r}") from None


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    rc = RunConfig()
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a flat JSON object")
        for key, value in data.items():
            if key not in _CASTS:
                raise ConfigError(f"unknown config key {key!r}")
            if value is not None:  # null is like an omitted flag: keep the default
                _set_field(rc, key, value)
    for key in _CASTS:
        value = getattr(args, key, None)
        if value is not None:
            _set_field(rc, key, value)
    if rc.trials < 0 or rc.workers < 1:
        raise ConfigError("trials must be >= 0 and workers >= 1")
    for key, cap in (("n_subcarriers", _MAX_SUBCARRIERS), ("trials", _MAX_TRIALS)):
        if getattr(rc, key) > cap:
            raise ConfigError(f"{key} must be at most {cap}, got {getattr(rc, key)}")
    return rc


# subcommand -> handler name, looked up at call time so the handlers can be
# replaced on the module
_COMMANDS = {
    "outage-sweep": "cmd_outage_sweep",
    "power-sweep": "cmd_power_sweep",
    "thresholds": "cmd_thresholds",
    "validate": "cmd_validate",
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once: building it costs far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="afrelay",
        description="Distortion-limited amplify-and-forward relay analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_common(sub.add_parser(name))
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        rc = _build_run_config(args)
        return globals()[_COMMANDS[args.command]](rc)
    except (ConfigError, DomainError, RegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
