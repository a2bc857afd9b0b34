"""Experiment configuration: INI parsing, validation, run manifests.

One flat key/value file with sections drives every CLI command. All
randomness in a run flows from the mandatory ``[session] seed``; there
is no wall-clock entropy anywhere, so identical configs replay
byte-for-byte.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
from dataclasses import MISSING, dataclass, fields
from importlib import resources

from .errors import ConfigError
from .qkd import ClockModel, DetectorModel, LinkModel
from .tdc import TdcConfig, parse_dnl

TOOL_VERSION = "0.1.0"


@dataclass(frozen=True)
class PrecisionSettings:
    """Parameters of the cable-delay precision measurement.

    ``cable_delay`` of None resolves to the quantization decorrelation
    delay for the configured tap width (see
    :func:`qkdstation.calibration.decorrelation_cable_delay`).
    """

    period: float  # ps between generator pulses
    cable_delay: float | None
    n_pulses: int
    pairs: tuple[tuple[int, int], ...]  # empty = consecutive pairs

    def __post_init__(self):
        if self.period <= 0 or self.n_pulses <= 0:
            raise ConfigError("precision period and pulse count must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs, mirroring the config file sections."""

    tdc: TdcConfig
    link: LinkModel
    detectors: DetectorModel
    clock: ClockModel
    dnl_spec: str
    jitter_sigma: tuple[float, ...]  # ps per channel; empty = all zero
    enabled_channels: tuple[int, ...]  # empty = all enabled
    offset_bound: float  # ps, GPS-style prior on the offset
    session_length_s: float
    basis_bias: float
    bit_bias: float
    disclose_fraction: float
    windows: tuple[float, ...]
    analysis_window: float
    f_ec: float
    sync_jitter_sigma: float  # ps on the sync detector
    seed: int
    calibration_samples: int
    buffer_depth: int
    link_rate: float  # whole bytes/s to the host
    precision: PrecisionSettings

    def __post_init__(self):
        if self.session_length_s <= 0:
            raise ConfigError("session_length_s must be positive")
        if not 0 <= self.basis_bias <= 1 or not 0 <= self.bit_bias <= 1:
            raise ConfigError("biases must lie in [0, 1]")
        if not 0 < self.disclose_fraction <= 1:
            raise ConfigError("disclose_fraction must lie in (0, 1]")
        check_windows(self.windows, self.link.pulse_period)
        if self.analysis_window not in self.windows:
            raise ConfigError("analysis_window_ps must be one of windows_ps")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit an unsigned 64-bit integer")
        if self.jitter_sigma and len(self.jitter_sigma) not in (1, self.tdc.n_channels):
            raise ConfigError(
                "jitter_sigma_ps needs 1 value or one per channel "
                f"({self.tdc.n_channels})"
            )
        if any(not 0 <= c < self.tdc.n_channels for c in self.enabled_channels):
            raise ConfigError("enabled channel id out of range")
        if any(not 0 <= c < self.tdc.n_channels for pair in self.precision.pairs for c in pair):
            raise ConfigError("precision pair channel id out of range")
        if self.f_ec < 1:
            raise ConfigError("f_ec must be at least 1")
        if self.offset_bound < 0:
            raise ConfigError("offset_bound_ps must be nonnegative")
        if 2 * self.offset_bound >= self.link.sync_period:
            raise ConfigError(
                "offset_bound must be below half the sync period for "
                "unambiguous clock recovery"
            )
        if abs(self.clock.offset) > self.offset_bound:
            raise ConfigError("[clock] offset_ps must lie in [-offset_bound_ps, offset_bound_ps]")
        if self.calibration_samples < 100_000:
            raise ConfigError("calibration needs at least 1e5 stimulus hits")
        if self.buffer_depth <= 0 or self.link_rate <= 0:
            raise ConfigError("buffer depth and link rate must be positive")
        if not float(self.link_rate).is_integer():
            raise ConfigError("[output] link_rate_bytes_per_s must be whole bytes per second")
        parse_dnl(self.dnl_spec)

    @property
    def n_pulses(self) -> int:
        return int(round(self.session_length_s * 1e12 / self.link.pulse_period))

    @property
    def n_sync(self) -> int:
        return int(round(self.session_length_s * 1e12 / self.link.sync_period))

    def channel_jitter(self, channel: int) -> float:
        if not self.jitter_sigma:
            return 0.0
        if len(self.jitter_sigma) == 1:
            return self.jitter_sigma[0]
        return self.jitter_sigma[channel]

    def channel_enabled(self, channel: int) -> bool:
        return not self.enabled_channels or channel in self.enabled_channels

    def precision_pairs(self) -> tuple[tuple[int, int], ...]:
        if self.precision.pairs:
            return self.precision.pairs
        n = self.tdc.n_channels - self.tdc.n_channels % 2
        return tuple((c, c + 1) for c in range(0, n, 2))


def check_windows(windows, pulse_period: float) -> list[float]:
    """``windows`` as floats, once they ascend strictly and each lies in
    (0, pulse_period/2); a wider window reaches into the next pulse slot."""
    w = [float(x) for x in windows]
    if not w:
        raise ConfigError("need at least one window")
    if any(b <= a for a, b in zip(w, w[1:])):
        raise ConfigError("windows must be strictly ascending")
    for window in w:
        if not 0 < window < pulse_period / 2:
            raise ConfigError(
                f"window {window} ps must lie in (0, pulse_period/2 = {pulse_period / 2})"
            )
    return w


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not a finite number")
    return value


def _list(parse):
    """``parse`` over each item of a comma- or space-separated list."""
    return lambda text: tuple(parse(x) for x in text.replace(",", " ").split())


def _pairs(text: str) -> tuple[tuple[int, int], ...]:
    flat = _list(int)(text)
    if len(flat) % 2:
        raise ValueError("channel ids must come in pairs")
    return tuple(zip(flat[::2], flat[1::2]))


def _unless(word: str, parse, value):
    """``parse``, except that ``word`` in any case, or an empty value,
    reads as ``value``."""
    return lambda text: value if text.strip().lower() in ("", word) else parse(text)


# (section, key, target, field, parse, default) of every key the parser
# reads. A default of MISSING is the target dataclass's own.
_KEYS = (
    ("tdc", "clock_period_ps", TdcConfig, "clock_period", _float, MISSING),
    ("tdc", "n_taps", TdcConfig, "n_taps", int, MISSING),
    ("tdc", "n_channels", TdcConfig, "n_channels", int, MISSING),
    ("tdc", "dead_time_ps", TdcConfig, "dead_time", _float, MISSING),
    ("tdc", "dnl", ExperimentConfig, "dnl_spec", str.strip, "uniform"),
    ("tdc", "jitter_sigma_ps", ExperimentConfig, "jitter_sigma", _list(_float), ()),
    ("tdc", "enabled", ExperimentConfig, "enabled_channels", _unless("all", _list(int), ()), ()),
    ("link", "loss_db", LinkModel, "loss_db", _float, MISSING),
    ("link", "background_rate_hz", LinkModel, "background_rate", _float, MISSING),
    ("link", "pulse_period_ps", LinkModel, "pulse_period", _float, MISSING),
    ("link", "sync_period_ps", LinkModel, "sync_period", _float, MISSING),
    ("link", "mean_photon_number", LinkModel, "mean_photon_number", _float, MISSING),
    ("detectors", "efficiency", DetectorModel, "efficiency", _float, MISSING),
    ("detectors", "dark_rate_hz", DetectorModel, "dark_rate", _float, MISSING),
    ("detectors", "jitter_sigma_ps", DetectorModel, "jitter_sigma", _float, MISSING),
    ("detectors", "dead_time_ps", DetectorModel, "det_dead_time", _float, MISSING),
    ("detectors", "intrinsic_error", DetectorModel, "intrinsic_error", _float, MISSING),
    ("clock", "offset_ps", ClockModel, "offset", _float, MISSING),
    ("clock", "drift_ppm", ClockModel, "drift_ppm", _float, MISSING),
    ("clock", "offset_bound_ps", ExperimentConfig, "offset_bound", _float, 450_000.0),
    ("session", "length_s", ExperimentConfig, "session_length_s", _float, 0.01),
    ("session", "basis_bias", ExperimentConfig, "basis_bias", _float, 0.5),
    ("session", "bit_bias", ExperimentConfig, "bit_bias", _float, 0.5),
    ("session", "disclose_fraction", ExperimentConfig, "disclose_fraction", _float, 0.1),
    ("session", "windows_ps", ExperimentConfig, "windows", _list(_float), (1000.0,)),
    # None: the first window, filled in once the windows are known
    ("session", "analysis_window_ps", ExperimentConfig, "analysis_window", _float, None),
    ("session", "f_ec", ExperimentConfig, "f_ec", _float, 1.16),
    ("session", "sync_jitter_sigma_ps", ExperimentConfig, "sync_jitter_sigma", _float, 60.0),
    ("session", "seed", ExperimentConfig, "seed", int, MISSING),
    ("session", "calibration_samples", ExperimentConfig, "calibration_samples", int, 1_000_000),
    ("precision", "period_ps", PrecisionSettings, "period", _float, 100_000.0),
    ("precision", "cable_delay_ps", PrecisionSettings, "cable_delay", _unless("auto", _float, None), None),
    ("precision", "n_pulses", PrecisionSettings, "n_pulses", int, 100_000),
    ("precision", "pairs", PrecisionSettings, "pairs", _unless("auto", _pairs, ()), ()),
    ("output", "buffer_depth", ExperimentConfig, "buffer_depth", int, 65_536),
    ("output", "link_rate_bytes_per_s", ExperimentConfig, "link_rate", _float, 35e6),
)


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigError on problems."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    known: dict[str, set[str]] = {parser.default_section: set()}
    for section, key, *_ in _KEYS:
        known.setdefault(section, set()).add(key)
    try:
        if not parser.read(str(path)):
            raise ConfigError(f"config file {path} not found or unreadable")
        for name in (parser.default_section, *parser.sections()):
            if name not in known:
                raise ConfigError(f"unknown config section [{name}]")
            unknown = sorted(set(parser[name]) - known[name])
            if unknown:
                raise ConfigError(f"unknown key {', '.join(unknown)} in [{name}]")
        return _config_from_parser(parser)
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc


def _config_from_parser(p: configparser.ConfigParser) -> ExperimentConfig:
    args: dict[type, dict] = {}
    for section, key, target, name, parse, default in _KEYS:
        text, value = p.get(section, key, fallback=None), default
        if text is not None:
            try:
                value = parse(text)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
        elif default is MISSING:
            value = {f.name: f.default for f in fields(target)}[name]
            if value is MISSING:  # only the seed: runs carry no wall-clock entropy
                raise ConfigError(f"[{section}] {key} is mandatory")
        args.setdefault(target, {})[name] = value
    own = args[ExperimentConfig]
    if own["analysis_window"] is None:
        own["analysis_window"] = own["windows"][0] if own["windows"] else 0.0
    return ExperimentConfig(
        tdc=TdcConfig(**args[TdcConfig]),
        link=LinkModel(**args[LinkModel]),
        detectors=DetectorModel(**args[DetectorModel]),
        clock=ClockModel(**args[ClockModel]),
        precision=PrecisionSettings(**args[PrecisionSettings]),
        **own,
    )


def reference_config_text() -> str:
    """The shipped reference configuration (verbatim INI text)."""
    return (
        resources.files("qkdstation.data").joinpath("reference.ini").read_text()
    )


@dataclass
class RunManifest:
    """What a run produced: config identity, artifacts, headline metrics."""

    config_sha256: str
    tool_version: str
    root_seed: int
    outputs: list[dict]
    summary: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "config_sha256": self.config_sha256,
                "tool_version": self.tool_version,
                "root_seed": self.root_seed,
                "outputs": self.outputs,
                "summary": self.summary,
            },
            indent=2,
            sort_keys=True,
        )


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_csv(path, header, rows) -> None:
    """Write a header row, then every row of the iterable ``rows``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
