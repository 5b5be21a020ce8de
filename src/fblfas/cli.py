"""Experiment runner emitting CSV curves.

Each subcommand sweeps one axis of the system and writes a curve per
configuration: the selected-port gain distribution with a Monte Carlo
overlay (``dist``), statistical error-bound sweeps over user count, SNR,
port count, and aperture width (``bler-vs-*``), outage sweeps over SNR and
user count (``op-vs-*``), and the quadrature-versus-oracle diagnostic
(``quad-check``).

The six ``bler-vs-*`` and ``op-vs-*`` subcommands are rows of one table
(``_SWEEPS``) run by one sweep engine (``_sweep``). It builds the system
config of every point and evaluates each distinct config once: a repeated
sweep value, or the single-antenna MRC benchmark that every port count and
width shares, costs one evaluation. The exact-channel overlays take any
port count; every channel (port count and aperture) of a sweep is drawn
in the same Monte Carlo chunks, from one normal stream per chunk. The MRC
columns draw nothing: the outage is in closed form and the error bound is
averaged by quadrature.

Output starts with a ``#``-prefixed metadata block echoing every resolved
setting, so re-running the printed configuration reproduces the file byte
for byte. Values use 17 significant digits and round-trip binary doubles
exactly. Configuration precedence is command line over ``--config`` file
over built-in defaults. ``FBLFAS_THREADS`` sets the threads that run Monte
Carlo chunks; analytic points run serially. Results do not depend on the
thread count.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, parallel
from .channel import BlockModel, SystemConfig, build_correlation, fit_block_model
from .errors import NumericError
from .fas_stats import GainDistribution, _evaluate, block_cdf_factor, block_cdf_factor_adaptive
from .metrics import mrc_outage, mrc_statistical_bler, outage_probability, statistical_bler
from .montecarlo import empirical_gain_cdf, empirical_outage_sweep, empirical_statistical_bler_sweep
from .quadrature import gauss_laguerre


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


def _gain_distribution(ports, width, mu2, sigma2, order) -> GainDistribution:
    if ports == 1:
        model = BlockModel(block_sizes=(1,), mu2=mu2)
    else:
        model = fit_block_model(build_correlation(ports, width), mu2)
    return GainDistribution(model=model, channel_variance=sigma2,
                            rule=gauss_laguerre(order))


def _system_config(args, ports, width, users, snr_db) -> SystemConfig:
    gamma_th = getattr(args, "gamma_th", None)
    kwargs = {} if gamma_th is None else {"outage_threshold": gamma_th}
    return SystemConfig.from_snr_db(
        ports=ports, antenna_length=width, users=users,
        blocklength=args.blocklength, snr_db=snr_db,
        channel_variance=args.sigma2, **kwargs,
    )


# ============================================================================
# Subcommand implementations
# ============================================================================


def _t_grid(args) -> np.ndarray:
    if not (args.t_min > 0.0 and args.t_max > args.t_min):
        raise ValueError("need 0 < t-min < t-max")
    if args.t_points < 1:
        raise ValueError(f"--t-points must be at least 1, got {args.t_points}")
    return np.linspace(args.t_min, args.t_max, args.t_points)


def _cmd_dist(args) -> PerformanceCurve:
    grid = _t_grid(args)
    dist = _gain_distribution(args.ports, args.width, args.mu2, args.sigma2,
                              args.quad_order)
    cdf, pdf = (tuple(column.tolist()) for column in _evaluate(dist, grid.tolist()))
    ests = empirical_gain_cdf(args.ports, args.width, args.sigma2, grid,
                              args.samples, args.seed)
    series = {
        "cdf_analytic": cdf,
        "pdf_analytic": pdf,
        "cdf_mc": tuple(e.value for e in ests),
        "cdf_mc_se": tuple(e.standard_error for e in ests),
    }
    return PerformanceCurve("t", tuple(float(t) for t in grid), series, _metadata(args))


@dataclass(frozen=True)
class _Sweep:
    """One row of the sweep table: a bler-vs-* or op-vs-* subcommand.

    column names the swept CSV column and the _system_config keyword that
    its values set; option is the dest holding the swept values; outage
    selects the outage probability over the error bound. defaults gives the
    default text of each sweep flag the subcommand takes besides
    --blocklength.
    """

    help: str
    column: str
    option: str
    outage: bool
    defaults: dict

    @property
    def per_port(self) -> bool:
        """One curve per port count, unless the array geometry is swept."""
        return self.column not in ("ports", "width")


_SWEEPS = {
    "bler-vs-u": _Sweep(
        "statistical error bound swept over the user count", "users", "users", False,
        {"users": "1:20", "ports": "5,50", "width": "1", "snr_db": "20"}),
    "bler-vs-snr": _Sweep(
        "statistical error bound swept over SNR", "snr_db", "snr_db", False,
        {"snr_db": "0:30:2", "ports": "5,50,1000", "width": "0.5", "users": "10"}),
    "bler-vs-n": _Sweep(
        "statistical error bound swept over the port count", "ports", "ports", False,
        {"ports": "5,10,20,50,100,200,500,1000,2000,5000", "width": "1", "users": "10",
         "snr_db": "12"}),
    "bler-vs-w": _Sweep(
        "statistical error bound swept over the aperture length", "width", "widths", False,
        {"widths": "0.1:1:0.1", "ports": "5000", "users": "10", "snr_db": "12"}),
    "op-vs-snr": _Sweep(
        "outage probability swept over SNR", "snr_db", "snr_db", True,
        {"snr_db": "-40:-10:2", "ports": "5,50,500", "width": "0.5", "users": "20",
         "gamma_th": "1e-3"}),
    "op-vs-u": _Sweep(
        "outage probability swept over the user count", "users", "users", True,
        {"users": "2:20", "ports": "5,50,500,1000", "width": "0.5", "snr_db": "-35",
         "gamma_th": "1e-4"}),
}

# Sweep flags: dest -> (value type, help as a single value, help as a list).
# The swept option, and --ports where each port count draws a curve, take
# comma-separated lists.
_SWEEP_FLAGS = {
    "users": (int, "user count U", "user counts"),
    "ports": (int, "port count N", "port counts"),
    "width": (float, "aperture length W in wavelengths", None),
    "widths": (float, None, "aperture lengths"),
    "snr_db": (float, "SNR in dB", "SNR values in dB"),
    "blocklength": (int, "blocklength M", None),
    "gamma_th": (float, "SINR outage threshold", None),
}


def _sweep(row, args) -> PerformanceCurve:
    """Run one sweep subcommand, evaluating each distinct point once.

    Columns are fas, then mc and mc_se when --mc-samples is set, suffixed
    _N{n} per port count where row.per_port, then one mrc_L{l} column per
    branch count on a single antenna (ports = 1). Repeated sweep values and
    the MRC config that every port count and width shares are evaluated
    once. The points of one channel (ports, antenna_length) run in curve
    order on one gain distribution. The overlay is one call over every
    distinct point of the sweep: each chunk's normals are drawn once and
    read by every channel, and each channel's points read one set of
    exact-channel draws, with the bytes of a sweep over that channel alone.
    The MRC columns are deterministic (mrc_outage and
    mrc_statistical_bler): --seed and --mrc-trials move none.
    """
    values = getattr(args, row.option)
    fixed = {key: getattr(args, key, None) for key in ("ports", "width", "users", "snr_db")}

    def configs(**settings):
        return [_system_config(args, **{**fixed, row.column: v, **settings}) for v in values]

    curves = ({f"_N{n}": configs(ports=n) for n in args.ports} if row.per_port
              else {"": configs()})
    distinct = list(dict.fromkeys(c for cs in curves.values() for c in cs))
    channels = {}
    for c in distinct:
        channels.setdefault((c.ports, c.antenna_length), []).append(c)
    metric = outage_probability if row.outage else statistical_bler
    overlay = empirical_outage_sweep if row.outage else empirical_statistical_bler_sweep
    fas = {}
    for (ports, width), cs in channels.items():
        dist = _gain_distribution(ports, width, args.mu2, args.sigma2, args.quad_order)
        fas.update((c, metric(c, dist)) for c in cs)
    mc = (dict(zip(distinct, overlay(distinct, args.mc_samples, args.seed)))
          if args.mc_samples else {})
    # a single antenna's metrics read no aperture, so one width serves all
    mrc_configs = configs(ports=1, width=1.0)
    bench_metric = mrc_outage if row.outage else mrc_statistical_bler
    # closed form, under a millisecond a point
    bench = {pair: bench_metric(*pair)
             for pair in dict.fromkeys((b, c) for b in args.mrc for c in mrc_configs)}
    series = {}
    for suffix, cs in curves.items():
        series["fas" + suffix] = tuple(fas[c] for c in cs)
        if args.mc_samples:
            series["mc" + suffix] = tuple(mc[c].value for c in cs)
            series[f"mc{suffix}_se"] = tuple(mc[c].standard_error for c in cs)
    for branches in args.mrc:
        series[f"mrc_L{branches}"] = tuple(bench[branches, c] for c in mrc_configs)
    return PerformanceCurve(row.column, tuple(float(v) for v in values), series,
                            _metadata(args))


def _cmd_quad_check(args) -> PerformanceCurve:
    grid = _t_grid(args)
    if not all(0.0 < mu < 1.0 for mu in args.mu):
        raise ValueError("every mu must lie strictly inside (0, 1)")
    rule = gauss_laguerre(args.quad_order)
    series = {}
    for mu in args.mu:
        mu2 = mu * mu
        def at(t):
            # The block-factor helpers fix the sigma^2 = 2 reference scale;
            # other variances rescale the threshold.
            t_eff = 2.0 * float(t) / args.sigma2
            return (block_cdf_factor(mu2, args.lb, t_eff, rule=rule),
                    block_cdf_factor_adaptive(mu2, args.lb, t_eff))
        pairs = [at(t) for t in grid]
        tag = f"mu{mu:g}"
        series[f"gl_value_{tag}"] = tuple(p[0] for p in pairs)
        series[f"oracle_value_{tag}"] = tuple(p[1] for p in pairs)
        series[f"abs_err_sq_{tag}"] = tuple((p[0] - p[1]) ** 2 for p in pairs)
    return PerformanceCurve("t", tuple(float(t) for t in grid), series,
                            _metadata(args))


# ============================================================================
# Parser construction and entry point
# ============================================================================


def _add_model_and_seed(sub):
    # dist and the sweeps; quad-check takes its correlations from --mu and
    # draws nothing
    sub.add_argument("--mu2", type=float, default=0.97,
                     help="intra-block correlation (default 0.97)")
    sub.add_argument("--seed", type=int, default=1,
                     help="base seed for every Monte Carlo draw (default 1)")


def _add_common(sub):
    sub.add_argument("--sigma2", type=float, default=2.0,
                     help="channel variance per port (default 2)")
    sub.add_argument("--quad-order", type=int, default=32,
                     help="Gauss-Laguerre order of the latent-variable rule (default 32), "
                          "used where it resolves a block's bracket; elsewhere the split "
                          "rule's (at most four) Gauss-Legendre panels have 16 nodes at "
                          "every order, so at strong correlation the order changes no value")
    sub.add_argument("--config", metavar="PATH",
                     help="flat key=value file supplying defaults")
    sub.add_argument("--out", metavar="PATH",
                     help="output CSV path (stdout if omitted)")


def _add_sweep_flags(sub, row):
    for dest, default in {**row.defaults, "blocklength": "5"}.items():
        kind, single, plural = _SWEEP_FLAGS[dest]
        if dest == row.option or (dest == "ports" and row.per_port):
            parse = parse_int_list if kind is int else parse_float_list
            text = f"swept {plural}" if dest == row.option else f"{plural}, one curve each"
        else:
            parse, text = kind, single
        sub.add_argument("--" + dest.replace("_", "-"), type=parse, default=parse(default),
                         help=f"{text} (default {default})")
    sub.add_argument("--mc-samples", type=int, default=0,
                     help="exact-channel draws per channel (0 disables; default 0)")
    mrc = "1,3,5" if row.outage else "1,2"
    sub.add_argument("--mrc", type=parse_int_list, default=parse_int_list(mrc),
                     help=f"benchmark MRC branch counts (default {mrc})")
    sub.add_argument("--mrc-trials", type=int, default=100000,
                     help="accepted for compatibility; the MRC benchmark draws nothing "
                          "(default 100000)")
    _add_model_and_seed(sub)
    _add_common(sub)


def _add_dist_flags(p):
    p.add_argument("--ports", type=int, default=10, help="port count N (default 10)")
    p.add_argument("--width", type=float, default=0.5,
                   help="aperture length W in wavelengths (default 0.5)")
    p.add_argument("--samples", type=int, default=100000,
                   help="exact-channel Monte Carlo draws (default 100000)")
    p.add_argument("--t-min", type=float, default=0.1, help="grid start (default 0.1)")
    p.add_argument("--t-max", type=float, default=40.0, help="grid end (default 40)")
    p.add_argument("--t-points", type=int, default=200, help="grid size (default 200)")
    _add_model_and_seed(p)
    _add_common(p)


def _add_quad_check_flags(p):
    p.add_argument("--mu", type=parse_float_list, default=parse_float_list("0.1,0.5,0.97"),
                   help="correlation values mu, squared internally (default 0.1,0.5,0.97)")
    p.add_argument("--lb", type=int, default=3, help="block size L (default 3)")
    p.add_argument("--t-min", type=float, default=0.2, help="grid start (default 0.2)")
    p.add_argument("--t-max", type=float, default=20.0, help="grid end (default 20)")
    p.add_argument("--t-points", type=int, default=50, help="grid size (default 50)")
    _add_common(p)


# Subcommands in usage order: name -> (function, help, flag builder).
_COMMANDS = {
    "dist": (_cmd_dist, "selected-port gain CDF/PDF with Monte Carlo overlay", _add_dist_flags),
    **{name: (functools.partial(_sweep, row), row.help,
              functools.partial(_add_sweep_flags, row=row))
       for name, row in _SWEEPS.items()},
    "quad-check": (_cmd_quad_check,
                   "fixed-order quadrature versus adaptive oracle on the block factor",
                   _add_quad_check_flags),
}


def build_parser(command=None):
    """The fblfas parser and {name: subparser} of the subcommands it holds.

    With a command, only that subcommand's parser is built (about a fifth
    of the cost of all eight), under the usage line that lists every
    subcommand, so its help, usage and error text read as with the full
    parser.
    """
    parser = argparse.ArgumentParser(
        prog="fblfas",
        description="Finite-blocklength fluid-antenna experiments as CSV curves.",
    )
    parser.add_argument("--version", action="version", version=f"fblfas {__version__}")
    every = "{" + ",".join(_COMMANDS) + "}"
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar=None if command is None else every)
    by_name = {}
    for name in _COMMANDS if command is None else (command,):
        func, help_text, add_flags = _COMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(func=func)
        add_flags(sub)
        by_name[name] = sub
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
            key = key.strip().replace("-", "_")
            if key in entries:
                raise ValueError(f"{path}:{lineno}: repeated key '{key}'")
            entries[key] = value.strip()
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the full parser only where argparse itself answers: a missing or
    # unknown command, or the top-level --help and --version
    parser, by_name = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(by_name[args.command], _read_config(args.config))
            args = parser.parse_args(argv)
        # outside input: a malformed FBLFAS_THREADS fails every subcommand,
        # also one that runs no Monte Carlo chunk
        parallel.worker_count(None)
        curve = args.func(args)
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
