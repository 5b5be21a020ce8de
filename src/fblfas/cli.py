"""Experiment runner emitting CSV curves.

Each subcommand sweeps one axis of the system and writes a curve per
configuration: the selected-port gain distribution with a Monte Carlo
overlay (``dist``), statistical error-bound sweeps over user count, SNR,
port count, and aperture width (``bler-vs-*``), outage sweeps over SNR and
user count (``op-vs-*``), and the quadrature-versus-oracle diagnostic
(``quad-check``).

Output starts with a ``#``-prefixed metadata block echoing every resolved
setting, so re-running the printed configuration reproduces the file byte
for byte. Values use 17 significant digits and round-trip binary doubles
exactly. Configuration precedence is command line over ``--config`` file
over built-in defaults. Set ``FBLFAS_THREADS`` to cap worker threads;
results do not depend on the thread count.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__, parallel
from .channel import BlockModel, SystemConfig, build_correlation, fit_block_model
from .errors import NumericError
from .fas_stats import (
    GainDistribution,
    block_cdf_factor,
    block_cdf_factor_adaptive,
    cdf_gfas,
    pdf_gfas,
)
from .metrics import (
    mrc_conditional_bler,
    mrc_outage,
    outage_probability,
    statistical_bler,
)
from .montecarlo import empirical_gain_cdf, empirical_outage_sweep, empirical_statistical_bler
from .quadrature import gauss_laguerre

# Monte Carlo draws factor the dense N x N correlation matrix (one dense
# eigendecomposition, then rank x N work per draw), so exact-channel overlays
# stop at this port count; analytic curves fit the block model matrix-free
# and take any N.
MAX_MC_PORTS = 1000


# ============================================================================
# Argument list syntax
# ============================================================================

# Sweep flags accept comma-separated values where each piece is either a
# single number or an inclusive start:stop[:step] range, e.g. "5,50" or
# "0:30:2" or "1:4,10".


def _range_pieces(part, convert, kind):
    pieces = part.split(":")
    if len(pieces) == 2:
        pieces.append("1")
    if len(pieces) != 3:
        raise argparse.ArgumentTypeError(f"bad {kind} range '{part}'")
    try:
        start, stop, step = (convert(p) for p in pieces)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {kind} range '{part}'") from None
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(f"bad {kind} range '{part}' (need stop >= start, step > 0)")
    return start, stop, step


def parse_int_list(text) -> tuple:
    out = []
    for part in text.split(","):
        part = part.strip()
        if ":" in part:
            start, stop, step = _range_pieces(part, int, "integer")
            out.extend(range(start, stop + 1, step))
        else:
            try:
                out.append(int(part))
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad integer '{part}'") from None
    if not out:
        raise argparse.ArgumentTypeError("empty list")
    return tuple(out)


def parse_float_list(text) -> tuple:
    out = []
    for part in text.split(","):
        part = part.strip()
        if ":" in part:
            start, stop, step = _range_pieces(part, float, "numeric")
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            out.extend(start + k * step for k in range(count))
        else:
            try:
                out.append(float(part))
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad number '{part}'") from None
    if not out:
        raise argparse.ArgumentTypeError("empty list")
    return tuple(out)


# ============================================================================
# Curve assembly and CSV rendering
# ============================================================================


@dataclass(frozen=True)
class PerformanceCurve:
    """One swept axis plus named series of equal length and run metadata."""

    sweep_name: str
    sweep_values: tuple
    series: dict
    metadata: dict

    def __post_init__(self):
        for name, values in self.series.items():
            if len(values) != len(self.sweep_values):
                raise ValueError(f"series '{name}' length does not match the sweep")


def render_csv(curve: PerformanceCurve) -> str:
    lines = [f"# fblfas {curve.metadata.get('command', '')}".rstrip()]
    for key in sorted(curve.metadata):
        if key != "command":
            lines.append(f"# {key} = {curve.metadata[key]}")
    names = list(curve.series)
    lines.append(",".join([curve.sweep_name] + names))
    for i, x in enumerate(curve.sweep_values):
        row = [f"{float(x):.17g}"] + [f"{float(curve.series[n][i]):.17g}" for n in names]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _format_meta(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(_format_meta(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _metadata(args) -> dict:
    meta = {"command": args.command}
    for key, value in vars(args).items():
        if key in ("command", "func", "config", "out") or value is None:
            continue
        meta[key] = _format_meta(value)
    return meta


def _map_points(fn, items) -> list:
    """Evaluate fn over items, in parallel when allowed, output in order."""
    items = list(items)
    workers = parallel.worker_count(None)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def _gain_distribution(ports, width, mu2, sigma2, order) -> GainDistribution:
    if ports == 1:
        model = BlockModel(block_count=1, block_sizes=(1,), mu2=mu2)
    else:
        model = fit_block_model(build_correlation(ports, width), mu2)
    return GainDistribution(model=model, channel_variance=sigma2,
                            rule=gauss_laguerre(order))


def _system_config(args, ports, width, users, snr_db, gamma_th=None) -> SystemConfig:
    kwargs = {} if gamma_th is None else {"outage_threshold": gamma_th}
    return SystemConfig.from_snr_db(
        ports=ports, antenna_length=width, users=users,
        blocklength=args.blocklength, snr_db=snr_db,
        channel_variance=args.sigma2, **kwargs,
    )


# ============================================================================
# Subcommand implementations
# ============================================================================


def _cmd_dist(args) -> PerformanceCurve:
    if not (args.t_min > 0.0 and args.t_max > args.t_min):
        raise ValueError("need 0 < t-min < t-max")
    grid = np.linspace(args.t_min, args.t_max, args.t_points)
    dist = _gain_distribution(args.ports, args.width, args.mu2, args.sigma2,
                              args.quad_order)
    cdf = _map_points(lambda t: cdf_gfas(dist, float(t)), grid)
    pdf = _map_points(lambda t: pdf_gfas(dist, float(t)), grid)
    ests = empirical_gain_cdf(args.ports, args.width, args.sigma2, grid,
                              args.samples, args.seed)
    series = {
        "cdf_analytic": tuple(cdf),
        "pdf_analytic": tuple(pdf),
        "cdf_mc": tuple(e.value for e in ests),
        "cdf_mc_se": tuple(e.standard_error for e in ests),
    }
    return PerformanceCurve("t", tuple(float(t) for t in grid), series, _metadata(args))


def _mrc_bler_series(args, users_of, sweep) -> dict:
    out = {}
    for branches in args.mrc:
        def at(value, _l=branches):
            cfg = users_of(value)
            return mrc_conditional_bler(_l, cfg, args.mrc_trials, args.seed)
        out[f"mrc_L{branches}"] = tuple(_map_points(at, sweep))
    return out


def _cmd_bler_vs_u(args) -> PerformanceCurve:
    sweep = args.users
    series = {}
    for ports in args.ports:
        dist = _gain_distribution(ports, args.width, args.mu2, args.sigma2,
                                  args.quad_order)
        def analytic(u, _d=dist, _n=ports):
            return statistical_bler(_system_config(args, _n, args.width, int(u),
                                                   args.snr_db), _d)
        series[f"fas_N{ports}"] = tuple(_map_points(analytic, sweep))
        if args.mc_samples:
            def mc(u, _n=ports):
                cfg = _system_config(args, _n, args.width, int(u), args.snr_db)
                return empirical_statistical_bler(cfg, args.mc_samples, args.seed)
            ests = _map_points(mc, sweep)
            series[f"mc_N{ports}"] = tuple(e.value for e in ests)
            series[f"mc_N{ports}_se"] = tuple(e.standard_error for e in ests)
    series.update(_mrc_bler_series(
        args, lambda u: _system_config(args, 1, args.width, int(u), args.snr_db), sweep))
    return PerformanceCurve("users", tuple(float(u) for u in sweep), series,
                            _metadata(args))


def _cmd_bler_vs_snr(args) -> PerformanceCurve:
    sweep = args.snr_db
    series = {}
    for ports in args.ports:
        dist = _gain_distribution(ports, args.width, args.mu2, args.sigma2,
                                  args.quad_order)
        def analytic(snr, _d=dist, _n=ports):
            return statistical_bler(_system_config(args, _n, args.width,
                                                   args.users, float(snr)), _d)
        series[f"fas_N{ports}"] = tuple(_map_points(analytic, sweep))
        if args.mc_samples:
            def mc(snr, _n=ports):
                cfg = _system_config(args, _n, args.width, args.users, float(snr))
                return empirical_statistical_bler(cfg, args.mc_samples, args.seed)
            ests = _map_points(mc, sweep)
            series[f"mc_N{ports}"] = tuple(e.value for e in ests)
            series[f"mc_N{ports}_se"] = tuple(e.standard_error for e in ests)
    series.update(_mrc_bler_series(
        args, lambda snr: _system_config(args, 1, args.width, args.users, float(snr)),
        sweep))
    return PerformanceCurve("snr_db", tuple(float(s) for s in sweep), series,
                            _metadata(args))


def _cmd_bler_vs_n(args) -> PerformanceCurve:
    sweep = args.ports

    def analytic(ports):
        dist = _gain_distribution(int(ports), args.width, args.mu2, args.sigma2,
                                  args.quad_order)
        cfg = _system_config(args, int(ports), args.width, args.users, args.snr_db)
        return statistical_bler(cfg, dist)

    series = {"fas": tuple(_map_points(analytic, sweep))}
    if args.mc_samples:
        def mc(ports):
            if ports > MAX_MC_PORTS:
                return None
            cfg = _system_config(args, int(ports), args.width, args.users, args.snr_db)
            return empirical_statistical_bler(cfg, args.mc_samples, args.seed)
        ests = _map_points(mc, sweep)
        series["mc"] = tuple(math.nan if e is None else e.value for e in ests)
        series["mc_se"] = tuple(math.nan if e is None else e.standard_error for e in ests)
    series.update(_mrc_bler_series(
        args, lambda _n: _system_config(args, 1, args.width, args.users, args.snr_db),
        sweep))
    return PerformanceCurve("ports", tuple(float(n) for n in sweep), series,
                            _metadata(args))


def _cmd_bler_vs_w(args) -> PerformanceCurve:
    sweep = args.widths

    def analytic(width):
        dist = _gain_distribution(args.ports, float(width), args.mu2, args.sigma2,
                                  args.quad_order)
        cfg = _system_config(args, args.ports, float(width), args.users, args.snr_db)
        return statistical_bler(cfg, dist)

    series = {"fas": tuple(_map_points(analytic, sweep))}
    if args.mc_samples:
        def mc(width):
            if args.ports > MAX_MC_PORTS:
                return None
            cfg = _system_config(args, args.ports, float(width), args.users, args.snr_db)
            return empirical_statistical_bler(cfg, args.mc_samples, args.seed)
        ests = _map_points(mc, sweep)
        series["mc"] = tuple(math.nan if e is None else e.value for e in ests)
        series["mc_se"] = tuple(math.nan if e is None else e.standard_error for e in ests)
    series.update(_mrc_bler_series(
        args, lambda w: _system_config(args, 1, float(w), args.users, args.snr_db),
        sweep))
    return PerformanceCurve("width", tuple(float(w) for w in sweep), series,
                            _metadata(args))


def _cmd_op_vs_snr(args) -> PerformanceCurve:
    sweep = args.snr_db
    series = {}
    for ports in args.ports:
        dist = _gain_distribution(ports, args.width, args.mu2, args.sigma2,
                                  args.quad_order)
        def analytic(snr, _d=dist, _n=ports):
            cfg = _system_config(args, _n, args.width, args.users, float(snr),
                                 gamma_th=args.gamma_th)
            return outage_probability(cfg, _d)
        series[f"fas_N{ports}"] = tuple(_map_points(analytic, sweep))
        if args.mc_samples:
            configs = [_system_config(args, ports, args.width, args.users, float(snr),
                                      gamma_th=args.gamma_th) for snr in sweep]
            ests = empirical_outage_sweep(configs, args.mc_samples, args.seed)
            series[f"mc_N{ports}"] = tuple(e.value for e in ests)
            series[f"mc_N{ports}_se"] = tuple(e.standard_error for e in ests)
    for branches in args.mrc:
        def bench(snr, _l=branches):
            cfg = _system_config(args, 1, args.width, args.users, float(snr),
                                 gamma_th=args.gamma_th)
            return mrc_outage(_l, cfg)
        series[f"mrc_L{branches}"] = tuple(_map_points(bench, sweep))
    return PerformanceCurve("snr_db", tuple(float(s) for s in sweep), series,
                            _metadata(args))


def _cmd_op_vs_u(args) -> PerformanceCurve:
    sweep = args.users
    series = {}
    for ports in args.ports:
        dist = _gain_distribution(ports, args.width, args.mu2, args.sigma2,
                                  args.quad_order)
        def analytic(u, _d=dist, _n=ports):
            cfg = _system_config(args, _n, args.width, int(u), args.snr_db,
                                 gamma_th=args.gamma_th)
            return outage_probability(cfg, _d)
        series[f"fas_N{ports}"] = tuple(_map_points(analytic, sweep))
        if args.mc_samples:
            configs = [_system_config(args, ports, args.width, int(u), args.snr_db,
                                      gamma_th=args.gamma_th) for u in sweep]
            ests = empirical_outage_sweep(configs, args.mc_samples, args.seed)
            series[f"mc_N{ports}"] = tuple(e.value for e in ests)
            series[f"mc_N{ports}_se"] = tuple(e.standard_error for e in ests)
    for branches in args.mrc:
        def bench(u, _l=branches):
            cfg = _system_config(args, 1, args.width, int(u), args.snr_db,
                                 gamma_th=args.gamma_th)
            return mrc_outage(_l, cfg)
        series[f"mrc_L{branches}"] = tuple(_map_points(bench, sweep))
    return PerformanceCurve("users", tuple(float(u) for u in sweep), series,
                            _metadata(args))


def _cmd_quad_check(args) -> PerformanceCurve:
    if not (args.t_min > 0.0 and args.t_max > args.t_min):
        raise ValueError("need 0 < t-min < t-max")
    mus = args.mu
    if mus is None:
        # Honor an explicit --mu2 as the single checked correlation; the
        # default sweep covers the weak-to-strong range.
        mus = (math.sqrt(args.mu2),) if args.mu2 is not None else (0.1, 0.5, 0.97)
    for mu in mus:
        if not (0.0 < mu < 1.0):
            raise ValueError("every mu must lie strictly inside (0, 1)")
    args.mu = tuple(float(m) for m in mus)
    args.mu2 = None
    grid = np.linspace(args.t_min, args.t_max, args.t_points)
    rule = gauss_laguerre(args.quad_order)
    series = {}
    for mu in args.mu:
        mu2 = mu * mu
        def at(t, _mu2=mu2):
            # The block-factor helpers fix the sigma^2 = 2 reference scale;
            # other variances rescale the threshold.
            t_eff = 2.0 * float(t) / args.sigma2
            gl = block_cdf_factor(_mu2, args.lb, t_eff, rule=rule)
            oracle = block_cdf_factor_adaptive(_mu2, args.lb, t_eff)
            return gl, oracle
        pairs = _map_points(at, grid)
        tag = f"mu{mu:g}"
        series[f"gl_value_{tag}"] = tuple(p[0] for p in pairs)
        series[f"oracle_value_{tag}"] = tuple(p[1] for p in pairs)
        series[f"abs_err_sq_{tag}"] = tuple((p[0] - p[1]) ** 2 for p in pairs)
    return PerformanceCurve("t", tuple(float(t) for t in grid), series,
                            _metadata(args))


# ============================================================================
# Parser construction and entry point
# ============================================================================


def _add_common(sub, mu2_default=0.97):
    sub.add_argument("--sigma2", type=float, default=2.0,
                     help="channel variance per port (default 2)")
    sub.add_argument("--mu2", type=float, default=mu2_default,
                     help="intra-block correlation (default 0.97)")
    sub.add_argument("--quad-order", type=int, default=32,
                     help="latent-variable rule order for analytic curves (default 32): "
                          "the Gauss-Laguerre node count where that rule resolves a "
                          "block's bracket, else twice the node count of each of the "
                          "split rule's (at most four) Gauss-Legendre panels")
    sub.add_argument("--seed", type=int, default=1,
                     help="base seed for every Monte Carlo draw (default 1)")
    sub.add_argument("--config", metavar="PATH",
                     help="flat key=value file supplying defaults")
    sub.add_argument("--out", metavar="PATH",
                     help="output CSV path (stdout if omitted)")


def _add_mc_options(sub, mrc_default, mc_help):
    sub.add_argument("--mc-samples", type=int, default=0,
                     help=mc_help + " (0 disables; default 0)")
    sub.add_argument("--mrc", type=parse_int_list, default=parse_int_list(mrc_default),
                     help=f"benchmark MRC branch counts (default {mrc_default})")
    sub.add_argument("--mrc-trials", type=int, default=100000,
                     help="gain draws per MRC benchmark point (default 100000)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fblfas",
        description="Finite-blocklength fluid-antenna experiments as CSV curves.",
    )
    parser.add_argument("--version", action="version", version=f"fblfas {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    by_name = {}

    def register(name, func, help_text):
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(func=func)
        by_name[name] = sub
        return sub

    p = register("dist", _cmd_dist,
                 "selected-port gain CDF/PDF with Monte Carlo overlay")
    p.add_argument("--ports", type=int, default=10, help="port count N (default 10)")
    p.add_argument("--width", type=float, default=0.5,
                   help="aperture length W in wavelengths (default 0.5)")
    p.add_argument("--samples", type=int, default=100000,
                   help="Monte Carlo draws (default 100000)")
    p.add_argument("--t-min", type=float, default=0.1, help="grid start (default 0.1)")
    p.add_argument("--t-max", type=float, default=40.0, help="grid end (default 40)")
    p.add_argument("--t-points", type=int, default=200, help="grid size (default 200)")
    _add_common(p)

    p = register("bler-vs-u", _cmd_bler_vs_u,
                 "statistical error bound swept over the user count")
    p.add_argument("--users", type=parse_int_list, default=parse_int_list("1:20"),
                   help="swept user counts (default 1:20)")
    p.add_argument("--ports", type=parse_int_list, default=parse_int_list("5,50"),
                   help="port counts, one curve each (default 5,50)")
    p.add_argument("--width", type=float, default=1.0, help="aperture length (default 1)")
    p.add_argument("--blocklength", type=int, default=5, help="blocklength M (default 5)")
    p.add_argument("--snr-db", type=float, default=20.0, help="SNR in dB (default 20)")
    _add_mc_options(p, "1,2", "exact-channel draws per point")
    _add_common(p)

    p = register("bler-vs-snr", _cmd_bler_vs_snr,
                 "statistical error bound swept over SNR")
    p.add_argument("--snr-db", type=parse_float_list, default=parse_float_list("0:30:2"),
                   help="swept SNR values in dB (default 0:30:2)")
    p.add_argument("--ports", type=parse_int_list, default=parse_int_list("5,50,1000"),
                   help="port counts, one curve each (default 5,50,1000)")
    p.add_argument("--width", type=float, default=0.5, help="aperture length (default 0.5)")
    p.add_argument("--users", type=int, default=10, help="user count U (default 10)")
    p.add_argument("--blocklength", type=int, default=5, help="blocklength M (default 5)")
    _add_mc_options(p, "1,2", "exact-channel draws per point")
    _add_common(p)

    p = register("bler-vs-n", _cmd_bler_vs_n,
                 "statistical error bound swept over the port count")
    p.add_argument("--ports", type=parse_int_list,
                   default=parse_int_list("5,10,20,50,100,200,500,1000,2000,5000"),
                   help="swept port counts (default 5,...,5000)")
    p.add_argument("--width", type=float, default=1.0, help="aperture length (default 1)")
    p.add_argument("--users", type=int, default=10, help="user count U (default 10)")
    p.add_argument("--blocklength", type=int, default=5, help="blocklength M (default 5)")
    p.add_argument("--snr-db", type=float, default=12.0, help="SNR in dB (default 12)")
    _add_mc_options(p, "1,2",
                    f"exact-channel draws per point, N <= {MAX_MC_PORTS} only")
    _add_common(p)

    p = register("bler-vs-w", _cmd_bler_vs_w,
                 "statistical error bound swept over the aperture length")
    p.add_argument("--widths", type=parse_float_list, default=parse_float_list("0.1:1:0.1"),
                   help="swept aperture lengths (default 0.1:1:0.1)")
    p.add_argument("--ports", type=int, default=5000, help="port count N (default 5000)")
    p.add_argument("--users", type=int, default=10, help="user count U (default 10)")
    p.add_argument("--blocklength", type=int, default=5, help="blocklength M (default 5)")
    p.add_argument("--snr-db", type=float, default=12.0, help="SNR in dB (default 12)")
    _add_mc_options(p, "1,2",
                    f"exact-channel draws per point, N <= {MAX_MC_PORTS} only")
    _add_common(p)

    p = register("op-vs-snr", _cmd_op_vs_snr, "outage probability swept over SNR")
    p.add_argument("--snr-db", type=parse_float_list, default=parse_float_list("-40:-10:2"),
                   help="swept SNR values in dB (default -40:-10:2)")
    p.add_argument("--ports", type=parse_int_list, default=parse_int_list("5,50,500"),
                   help="port counts, one curve each (default 5,50,500)")
    p.add_argument("--width", type=float, default=0.5, help="aperture length (default 0.5)")
    p.add_argument("--users", type=int, default=20, help="user count U (default 20)")
    p.add_argument("--blocklength", type=int, default=5, help="blocklength M (default 5)")
    p.add_argument("--gamma-th", type=float, default=1e-3,
                   help="SINR outage threshold (default 1e-3)")
    _add_mc_options(p, "1,3,5", "exact-channel draws per point")
    _add_common(p)

    p = register("op-vs-u", _cmd_op_vs_u, "outage probability swept over the user count")
    p.add_argument("--users", type=parse_int_list, default=parse_int_list("2:20"),
                   help="swept user counts (default 2:20)")
    p.add_argument("--ports", type=parse_int_list, default=parse_int_list("5,50,500,1000"),
                   help="port counts, one curve each (default 5,50,500,1000)")
    p.add_argument("--width", type=float, default=0.5, help="aperture length (default 0.5)")
    p.add_argument("--snr-db", type=float, default=-35.0, help="SNR in dB (default -35)")
    p.add_argument("--blocklength", type=int, default=5, help="blocklength M (default 5)")
    p.add_argument("--gamma-th", type=float, default=1e-4,
                   help="SINR outage threshold (default 1e-4)")
    _add_mc_options(p, "1,3,5", "exact-channel draws per point")
    _add_common(p)

    p = register("quad-check", _cmd_quad_check,
                 "fixed-order quadrature versus adaptive oracle on the block factor")
    p.add_argument("--order", "--quad-order", dest="quad_order", type=int, default=32,
                   help="latent-variable rule order under test (default 32): the "
                        "Gauss-Laguerre node count where that rule resolves the "
                        "bracket, else twice the node count of each Gauss-Legendre "
                        "panel of the split rule")
    p.add_argument("--mu", type=parse_float_list, default=None,
                   help="correlation values mu, squared internally (default 0.1,0.5,0.97)")
    p.add_argument("--lb", type=int, default=3, help="block size exponent (default 3)")
    p.add_argument("--t-min", type=float, default=0.2, help="grid start (default 0.2)")
    p.add_argument("--t-max", type=float, default=20.0, help="grid end (default 20)")
    p.add_argument("--t-points", type=int, default=50, help="grid size (default 50)")
    sub = p
    sub.add_argument("--sigma2", type=float, default=2.0,
                     help="channel variance per port (default 2)")
    sub.add_argument("--mu2", type=float, default=None,
                     help="single correlation, equivalent to --mu sqrt(mu2)")
    sub.add_argument("--seed", type=int, default=1,
                     help="accepted for uniformity; this check draws nothing")
    sub.add_argument("--config", metavar="PATH",
                     help="flat key=value file supplying defaults")
    sub.add_argument("--out", metavar="PATH",
                     help="output CSV path (stdout if omitted)")

    return parser, by_name


def _read_config(path) -> dict:
    entries = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _apply_config(sub, entries) -> None:
    actions = {a.dest: a for a in sub._actions}
    defaults = {}
    for key, raw in entries.items():
        if key in ("config", "out", "help") or key not in actions:
            raise ValueError(f"unknown configuration key '{key}'")
        action = actions[key]
        try:
            defaults[key] = action.type(raw) if action.type else raw
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"bad value for '{key}': {exc}") from None
        except (TypeError, ValueError):
            raise ValueError(f"bad value for '{key}': {raw!r}") from None
    sub.set_defaults(**defaults)


def run_experiment(args) -> PerformanceCurve:
    return args.func(args)


def main(argv=None) -> int:
    parser, by_name = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(by_name[args.command], _read_config(args.config))
            args = parser.parse_args(argv)
        curve = run_experiment(args)
        text = render_csv(curve)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ValueError as exc:
        print(f"fblfas: error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"fblfas: numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
