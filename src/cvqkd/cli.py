"""Command-line front end.

Subcommands: ``simulate`` (generate a session record), ``rate`` (key-rate
report from a record or covariance literal), ``verify`` (inequality
certification manifest), ``sweep`` (rate tables over a channel
parameter).

Experiments are configured by a JSON config file (``--config``) whose
keys match the flags of simulate and sweep, each given once; each command
reads the keys it has flags for, and flags win over the file. Every value
converts by the rule of a record header's (``records.convert_field``). A
sweep's table depends on second moments only, so ``sweep`` takes no
noise-shape flag; ``rate --record`` takes the protocol and n0 from its
record. All randomness flows from the single seed, outputs carry no
timestamps, and reruns with the same configuration are byte-identical.
Relative output paths land in ``$CVQKD_OUT_DIR`` when that variable is set.

Exit status: 0 success, 2 configuration or domain error, 3 parse error
or unreadable/unwritable file, 4 capacity error, 5 verification failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import records
from .errors import (
    CapacityError,
    ConfigurationError,
    CvqkdError,
    DomainError,
    ParseError,
)
from .estimators import estimate_covariance
from .rates import (
    Covariance2,
    ProtocolKind,
    _accepted,
    _bound,
    _efficiency_accepted,
    conditional_squeezing_check,
    rate_bound,
)
from .simulator import (
    SHAPE_KINDS,
    ChannelModel,
    EprSource,
    GaussianNoise,
    SiftingMode,
    _channel_accepted,
    _source_accepted,
    analytic_covariance,
    analytic_moments,
    run_session,
)
from .verify import manifest as build_manifest
from .verify import MIN_SAMPLES, run_suites

EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_CAPACITY = 4
EXIT_VERIFY = 5

PROTOCOL_NAMES = [p.value for p in ProtocolKind]
SIFTING_NAMES = [m.value for m in SiftingMode]


@dataclasses.dataclass
class ExperimentConfig:
    """One reproducible experiment: source, channel, blocks, seed, and its record."""

    protocol: ProtocolKind = ProtocolKind.SQUEEZED_HOMODYNE
    v: float = 20.0
    t: float = 1.0
    eps: float = 0.0
    shape: str = "gaussian"
    rho_block: float = 0.0
    n: int = 1
    l: int = 100_000
    sifting: SiftingMode = SiftingMode.RANDOM_BASIS
    seed: int = 0
    beta: float = 1.0
    n0: float = 1.0
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.format not in records.FORMATS:
            raise ConfigurationError(f"unknown record format {self.format!r}")
        _efficiency_accepted(self.beta)

    def source_and_channel(self) -> tuple[EprSource, ChannelModel]:
        """The source and channel; a bare shape name is fitted to the channel's noise variance,
        and a spec like ``displacement:magnitude=1.4,probability=1.0`` taken literally."""
        if ":" in self.shape:
            shape = records.shape_from_string(self.shape)
        elif self.shape not in SHAPE_KINDS:
            raise ConfigurationError(f"unknown noise shape {self.shape!r}")
        else:
            noise_variance = ChannelModel(self.t, self.eps).noise_variance(self.n0)
            if SHAPE_KINDS[self.shape] is not GaussianNoise and noise_variance <= 0:
                raise ConfigurationError(
                    f"shape {self.shape!r} needs a positive channel noise variance; "
                    "this channel adds no noise")
            shape = SHAPE_KINDS[self.shape].matching(noise_variance)
        return records.source_and_channel(vars(self), shape)


#: each config key's type and least value: records.FIELDS's, then beta's, out's and format's
CONFIG_TYPES = {**{key: field[1:] for key, field in records.FIELDS.items()},
                "beta": (float, None), "out": (str, None), "format": (str, None)}
CONFIG_FIELDS = CONFIG_TYPES.keys()

SWEEP_PARAMS = ("t", "eps", "v", "beta")


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    """Config file values, overridden by any flag the user set, each converted as in a header."""
    pairs = [] if path is None else records.json_object(records.read_text(path),
                                                         f"cannot read config {path}")
    try:
        values = records.checked_fields(pairs, CONFIG_FIELDS, complete=False)
    except ValueError as exc:
        raise ConfigurationError(f"config {path}: {exc}") from None
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        values = {key: records.convert_field(key, values[key], *CONFIG_TYPES[key])
                  for key in CONFIG_TYPES if key in values}
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    return ExperimentConfig(**values)


def resolve_out(path: str) -> Path:
    """The output path; raises, before any work is done, if its directory is
    missing or it names a directory itself."""
    base = os.environ.get("CVQKD_OUT_DIR")
    p = Path(path)
    if base and not p.is_absolute():
        p = Path(base) / p
    if not p.parent.is_dir():
        raise FileNotFoundError(f"cannot write {p}: no directory {p.parent}")
    if p.is_dir():
        raise IsADirectoryError(f"cannot write {p}: it is a directory")
    return p


class _Group(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (CvqkdError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            if isinstance(exc, (ParseError, OSError)):
                sys.exit(EXIT_PARSE)
            sys.exit(EXIT_CAPACITY if isinstance(exc, CapacityError) else EXIT_CONFIG)


@click.group(cls=_Group, context_settings={"help_option_names": ["-h", "--help"]})
def main():
    """Security analysis for continuous-variable QKD."""


def config_options(cmd):
    """The source and channel flags that simulate and sweep share."""
    for option in reversed([
        click.option("--config", type=click.Path(), default=None,
                     help="JSON config file; flags override its values."),
        click.option("--v", type=float, default=None,
                     help="Source quadrature variance (shot-noise units)."),
        click.option("--t", type=float, default=None, help="Channel transmission."),
        click.option("--eps", type=float, default=None,
                     help="Excess noise at the channel input (shot-noise units)."),
        click.option("--n0", type=float, default=None, help="Shot-noise unit."),
    ]):
        cmd = option(cmd)
    return cmd


@main.command()
@config_options
@click.option("--shape", default=None,
              help="Noise shape: gaussian, mixture, uniform, displacement, "
                   "or a parameterized spec like "
                   "displacement:magnitude=1.4,probability=1.0.")
@click.option("--rho-block", "rho_block", type=float, default=None,
              help="Intra-block noise correlation (Gaussian shape only).")
@click.option("--protocol", type=click.Choice(PROTOCOL_NAMES), default=None)
@click.option("--n", type=int, default=None, help="Pulses per block.")
@click.option("--l", type=int, default=None, help="Number of blocks.")
@click.option("--sifting", type=click.Choice(SIFTING_NAMES), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None, help="Record file to write.")
@click.option("--format", "fmt", type=click.Choice(records.FORMATS), default=None)
def simulate(config, out, fmt, **overrides):
    """Run a session and write the pulse record."""
    cfg = load_config(config, {**overrides, "out": out, "format": fmt})
    if cfg.out is None:
        raise ConfigurationError("no output path: pass --out or set 'out' in the config")
    source, channel = cfg.source_and_channel()
    path = resolve_out(cfg.out)
    record = run_session(source, channel, cfg.protocol,
                         cfg.n, cfg.l, cfg.sifting, cfg.seed)
    records.write_record(record, path, cfg.format)
    click.echo(f"wrote {path} ({cfg.format}, {record.total_pulses} pulses)")
    kept = record.kept_count
    click.echo(f"kept {kept} pulses (fraction {kept / record.total_pulses:.4f}, "
               f"sifting {record.sifting_mode.value})")
    # a record of fewer than 2 kept pulses is valid, but has no sample covariance
    k = estimate_covariance(record.samples()) if kept >= 2 else None
    click.echo("sample covariance (pooled): " + (
        f"needs at least 2 kept pulses, got {kept}" if k is None else
        f"var_a={k.var_a:.6g} var_b={k.var_b:.6g} cov_ab={k.cov_ab:.6g}"))
    ka = analytic_covariance(source, channel, record.protocol)
    click.echo(f"analytic covariance:        var_a={ka.var_a:.6g} "
               f"var_b={ka.var_b:.6g} cov_ab={ka.cov_ab:.6g}")
    if k is not None:
        # full-precision literal: feeding it to `rate --cov` reproduces the
        # record-based rate exactly
        click.echo(f"covariance literal: {k.var_a!r},{k.var_b!r},{k.cov_ab!r}")


@main.command()
@click.option("--record", "record_path", type=click.Path(), default=None,
              help="Session record file to analyze.")
@click.option("--cov", default=None,
              help="Covariance literal 'var_a,var_b,cov_ab' instead of a record.")
@click.option("--protocol", type=click.Choice(PROTOCOL_NAMES), default=None,
              help="With --cov only, where it is required.")
@click.option("--beta", type=float, default=1.0,
              help="Reconciliation efficiency in [0, 1].")
@click.option("--n", type=int, default=None,
              help="Block size for the block rate (record's n by default).")
@click.option("--n0", type=float, default=None, help="Shot-noise unit; only with --cov.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--out", type=click.Path(), default=None,
              help="Also write the JSON report here.")
def rate(record_path, cov, protocol, beta, n, n0, fmt, out):
    """Key-rate lower bound from a record or a covariance literal."""
    if (record_path is None) == (cov is None):
        raise ConfigurationError("give exactly one of --record or --cov")
    if record_path is not None and (protocol is not None or n0 is not None):
        raise ConfigurationError(f"{'--protocol' if protocol else '--n0'} is read from the record")
    _efficiency_accepted(beta)
    out_path = None if out is None else resolve_out(out)

    record = sample_count = None
    if record_path is not None:
        record = records.read_record(record_path)
        kind, shot = record.protocol, record.source.n0
        block = record.n if n is None else n
        samples = record.samples()
        sample_count = len(samples)
        k = estimate_covariance(samples)
    else:
        if protocol is None:
            raise ConfigurationError("--cov needs --protocol")
        kind = ProtocolKind(protocol)
        shot = 1.0 if n0 is None else n0
        block = 1 if n is None else n
        k = _parse_cov(cov)

    report = rate_bound(k, block, kind, shot)
    if record is not None and record.sifting_mode is SiftingMode.RANDOM_BASIS:
        report = report.with_sifting()
    effective = report.effective_rate(beta)
    verdict = "secure key obtainable" if effective > 0 else "no secure key"

    payload = {
        "protocol": kind.value,
        "covariance": {"var_a": k.var_a, "var_b": k.var_b, "cov_ab": k.cov_ab},
        "sample_count": sample_count,
        "n0": shot,
        "block_size": block,
        "cond_var_b_given_a": report.cond_var_b_given_a,
        "cond_var_b_given_a_prime": report.cond_var_b_given_a_prime,
        "conditional_squeezing": conditional_squeezing_check(k, shot),
        "i_ab": report.i_ab,
        "i_be_bound": report.i_be_bound,
        "delta_i_min_per_pulse": report.delta_i_min_per_pulse,
        "delta_i_min_block": report.delta_i_min_block,
        "sifting_applied": report.sifting_applied,
        "beta": beta,
        "effective_rate_per_pulse": effective,
        "verdict": verdict,
    }
    if fmt == "json":
        click.echo(json.dumps(payload, indent=2))
    else:
        _echo_rate_text(payload)
    if out_path is not None:
        out_path.write_text(json.dumps(payload, indent=2) + "\n")


def _echo_rate_text(p: dict) -> None:
    k = p["covariance"]
    click.echo(f"protocol: {p['protocol']}")
    if p["sample_count"] is not None:
        click.echo(f"samples: {p['sample_count']} kept pulses")
    click.echo(f"covariance: var_a={k['var_a']:.6g} var_b={k['var_b']:.6g} "
               f"cov_ab={k['cov_ab']:.6g}  (n0={p['n0']:g})")
    click.echo(f"conditional variance B|A: {p['cond_var_b_given_a']:.6g}"
               + (f"   B|A': {p['cond_var_b_given_a_prime']:.6g}"
                  if p["cond_var_b_given_a_prime"] is not None else ""))
    click.echo(f"conditional squeezing: {p['conditional_squeezing']}")
    click.echo(f"I_AB: {p['i_ab']:.6f} bits/pulse   "
               f"I_BE bound: {p['i_be_bound']:.6f} bits/pulse")
    sift = " (sifting factor 1/2 applied)" if p["sifting_applied"] else ""
    click.echo(f"delta_I_min: {p['delta_i_min_per_pulse']:.6f} bits/pulse, "
               f"{p['delta_i_min_block']:.6f} bits/block of n={p['block_size']}{sift}")
    click.echo(f"effective rate at beta={p['beta']:g}: "
               f"{p['effective_rate_per_pulse']:.6f} bits/pulse")
    click.echo(f"verdict: {p['verdict']}")


def _parse_cov(text: str) -> Covariance2:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError(f"covariance literal needs 3 comma-separated numbers, "
                         f"got {text!r}")
    try:
        var_a, var_b, cov_ab = (float(x) for x in parts)
    except ValueError as exc:
        raise ParseError(f"bad covariance literal {text!r}: {exc}") from exc
    return Covariance2(var_a, var_b, cov_ab)


@main.command()
@click.option("--scope", type=click.Choice(["discrete", "statistical", "all"]),
              default="all")
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--trials", type=click.IntRange(min=1), default=10_000,
              help="Random joint laws in all, split evenly over the four (n, alphabet) "
                   "families of exact checks, rounding down, at least one each.")
@click.option("--pulses", type=int, default=1_000_000,
              help="Pulses per simulated attack in the statistical scope.")
@click.option("--out", type=click.Path(), default=None,
              help="Write the verification manifest (JSON) here.")
def verify(scope, seed, trials, pulses, out):
    """Certify the entropy inequalities; exit 5 if any check fails."""
    if scope != "discrete" and pulses < MIN_SAMPLES:
        raise ConfigurationError(f"--pulses must be at least {MIN_SAMPLES}, got {pulses}")
    out_path = None if out is None else resolve_out(out)
    reports = run_suites(scope, seed, trials, pulses)
    for r in reports:
        status = "PASS" if r.holds else "FAIL"
        click.echo(f"{status} {r.identifier}  slack={r.slack:.6g}")
    doc = build_manifest(reports, scope, seed)
    if out_path is not None:
        out_path.write_text(json.dumps(doc, indent=2) + "\n")
    if not doc["all_hold"]:
        failed = [r.identifier for r in reports if not r.holds]
        click.echo(f"verification failed: {', '.join(failed)}", err=True)
        sys.exit(EXIT_VERIFY)
    click.echo(f"all {len(reports)} checks hold")


SWEEP_COLUMNS = (
    "param", "value",
    "delta_i_min_squeezed", "delta_i_min_coherent",
    "i_ab_squeezed", "i_ab_coherent",
    "i_be_bound_squeezed", "i_be_bound_coherent",
    "cond_var_squeezed", "cond_var_coherent",
)

#: one CSV line of a sweep: every cell, or the coherent cells left empty
SWEEP_ROW = "{},{!r},{!r},{!r},{!r},{!r},{!r},{!r},{!r},{!r}\n"
SWEEP_ROW_SQUEEZED_ONLY = "{0},{1!r},{2!r},,{4!r},,{6!r},,{8!r},\n"

#: grid points formatted and written at a time
SWEEP_CHUNK = 4096

SWEEP_KINDS = (ProtocolKind.SQUEEZED_HOMODYNE, ProtocolKind.COHERENT_HETERODYNE)


@main.command()
@config_options
@click.option("--beta", type=float, default=None,
              help="Reconciliation efficiency in [0, 1].")
@click.option("--param", type=click.Choice(SWEEP_PARAMS), required=True)
@click.option("--start", type=float, required=True)
@click.option("--stop", type=float, required=True)
@click.option("--steps", type=int, required=True)
@click.option("--out", required=True, type=click.Path(), help="CSV table to write.")
@click.option("--plot-out", type=click.Path(), default=None,
              help="Column-oriented JSON for plotting tools.")
def sweep(config, param, start, stop, steps, out, plot_out, **overrides):
    """Rate bounds on a grid of one channel parameter (analytic, no
    simulation; quantum-memory-mode rates, no sifting factor)."""
    base = load_config(config, overrides)
    if steps < 2:
        raise ConfigurationError(f"need at least 2 steps, got {steps}")
    if not math.isfinite(stop - start):
        raise ConfigurationError(f"--start and --stop must span a finite range, "
                                 f"got {start:g} to {stop:g}")
    path = resolve_out(out)
    plot_path = None if plot_out is None else resolve_out(plot_out)
    try:
        with np.errstate(all="ignore"):  # an overflowing point fails its domain check
            values = start + (stop - start) * np.arange(steps) / (steps - 1)
    except (MemoryError, ValueError):
        raise CapacityError(f"cannot hold a sweep of {steps} grid points") from None
    point = {"v": base.v, "t": base.t, "eps": base.eps, "beta": base.beta, "n0": base.n0}
    columns = _sweep_columns(param, values, point)

    with path.open("w") as f:
        f.write(",".join(SWEEP_COLUMNS) + "\n")
        for first in range(0, steps, SWEEP_CHUNK):
            chunk = (column[first:first + SWEEP_CHUNK].tolist() for column in (values, *columns))
            f.write("".join((SWEEP_ROW_SQUEEZED_ONLY if math.isnan(row[2]) else SWEEP_ROW)
                            .format(param, *row) for row in zip(*chunk)))
    click.echo(f"wrote {path} ({steps} grid points)")

    if plot_path is not None:
        doc = {"param": param, "values": values.tolist(), "series": {
            name: [None if math.isnan(x) else x for x in column.tolist()]
            for name, column in zip(SWEEP_COLUMNS[2:], columns)}}
        plot_path.write_text(json.dumps(doc, indent=2) + "\n")
        click.echo(f"wrote {plot_path}")


def _sweep_columns(param: str, values: np.ndarray, point: dict) -> list:
    """The eight rate columns of a sweep table (SWEEP_COLUMNS after value), NaN in
    the coherent cells a point leaves empty. The grid goes through _sweep_moments
    as columns, and then, if a row is not defined at every point, the first point
    where it is not goes through it on its own, which raises that point's error.
    Only a grid that passes is priced, by rate_bound for each of SWEEP_KINDS."""
    grid = {name: np.full(len(values), float(value)) for name, value in point.items()}
    grid[param] = values
    with np.errstate(all="ignore"):  # the points a check rejects may overflow
        holds, *moments = _sweep_moments(**grid)
        if not holds.all():
            value = values[holds.argmin()].item()  # the first point where holds is False
            try:
                _sweep_moments(**{**point, param: value})
            except (ConfigurationError, DomainError) as exc:
                raise type(exc)(f"{param}={value:g}: {exc}") from exc
        cells = [(r.effective_rate(grid["beta"]), r.i_ab, r.i_be_bound, r.cond_var_b_given_a)
                 for r in (rate_bound(k, 1, kind, float(point["n0"]))
                           for k, kind in zip(moments, SWEEP_KINDS))]
    return [column for pair in zip(*cells) for column in pair]


def _sweep_moments(v, t, eps, beta, n0) -> tuple:
    """(where a sweep row is defined, and each of SWEEP_KINDS' analytic_moments) at
    source variance v, transmission t, excess noise eps, efficiency beta and
    shot-noise unit n0, as columns for a grid or floats for one point (see
    rates._require). A row is defined where, in this order, beta, the source and the
    channel are in their domains, Covariance2 accepts the squeezed moments and their
    bound holds, and Covariance2 accepts the coherent moments."""
    holds = _efficiency_accepted(beta) & _source_accepted(v, n0) & _channel_accepted(t, eps)
    squeezed, coherent = (analytic_moments(v, t, eps, n0, kind) for kind in SWEEP_KINDS)
    holds &= _accepted(squeezed) & _bound(squeezed, SWEEP_KINDS[0], n0)[0]
    return holds & _accepted(coherent), squeezed, coherent


if __name__ == "__main__":
    main()
