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
from dataclasses import dataclass
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
    link_rate: float  # bytes/s to the host
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
        if 2 * self.offset_bound >= self.link.sync_period:
            raise ConfigError(
                "offset_bound must be below half the sync period for "
                "unambiguous clock recovery"
            )
        if self.calibration_samples < 100_000:
            raise ConfigError("calibration needs at least 1e5 stimulus hits")
        if self.buffer_depth <= 0 or self.link_rate <= 0:
            raise ConfigError("buffer depth and link rate must be positive")
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


def _float(sec, key, default) -> float:
    """``sec[key]``, or ``default`` when it is absent, as a finite float."""
    value = float(sec.get(key, default))
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, not {value}")
    return value


def _floats(sec, key, default="") -> tuple[float, ...]:
    # each listed value is checked as if it were the key's only value
    return tuple(_float({key: x}, key, x) for x in sec.get(key, default).replace(",", " ").split())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.replace(",", " ").split())


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigError on problems."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    known = _reference_parser()  # sets every key the parser reads
    try:
        if not parser.read(str(path)):
            raise ConfigError(f"config file {path} not found or unreadable")
        for name in (parser.default_section, *parser.sections()):
            if name not in known:
                raise ConfigError(f"unknown config section [{name}]")
            unknown = sorted(set(parser[name]) - set(known[name]))
            if unknown:
                raise ConfigError(f"unknown key {', '.join(unknown)} in [{name}]")
        return _config_from_parser(parser)
    except (ValueError, KeyError, configparser.Error) as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc


def _config_from_parser(p: configparser.ConfigParser) -> ExperimentConfig:
    tdc_sec = p["tdc"] if p.has_section("tdc") else {}
    tdc = TdcConfig(
        clock_period=_float(tdc_sec, "clock_period_ps", 6250.0),
        n_taps=int(tdc_sec.get("n_taps", 261)),
        n_channels=int(tdc_sec.get("n_channels", 16)),
        dead_time=_float(tdc_sec, "dead_time_ps", 30_000.0),
    )
    link_sec = p["link"] if p.has_section("link") else {}
    link = LinkModel(
        loss_db=_float(link_sec, "loss_db", 10.0),
        background_rate=_float(link_sec, "background_rate_hz", 30_000.0),
        pulse_period=_float(link_sec, "pulse_period_ps", 10_000.0),
        sync_period=_float(link_sec, "sync_period_ps", 2_000_000.0),
        mean_photon_number=_float(link_sec, "mean_photon_number", 0.5),
    )
    det_sec = p["detectors"] if p.has_section("detectors") else {}
    detectors = DetectorModel(
        efficiency=_float(det_sec, "efficiency", 0.5),
        dark_rate=_float(det_sec, "dark_rate_hz", 1000.0),
        jitter_sigma=_float(det_sec, "jitter_sigma_ps", 60.0),
        det_dead_time=_float(det_sec, "dead_time_ps", 50_000.0),
        intrinsic_error=_float(det_sec, "intrinsic_error", 0.015),
    )
    clk_sec = p["clock"] if p.has_section("clock") else {}
    clock = ClockModel(
        offset=_float(clk_sec, "offset_ps", 0.0),
        drift_ppm=_float(clk_sec, "drift_ppm", 0.0),
    )
    ses = p["session"] if p.has_section("session") else {}
    if "seed" not in ses:
        raise ConfigError("[session] seed is mandatory; runs carry no wall-clock entropy")
    prec_sec = p["precision"] if p.has_section("precision") else {}
    pairs: tuple[tuple[int, int], ...] = ()
    if "pairs" in prec_sec and prec_sec["pairs"].strip().lower() != "auto":
        flat = _ints(prec_sec["pairs"])
        if len(flat) % 2:
            raise ConfigError("precision pairs must list channel ids in pairs")
        pairs = tuple(zip(flat[::2], flat[1::2]))
    cable_raw = prec_sec.get("cable_delay_ps", "").strip() if prec_sec else ""
    precision = PrecisionSettings(
        period=_float(prec_sec, "period_ps", 100_000.0),
        cable_delay=_float(prec_sec, "cable_delay_ps", None) if cable_raw and cable_raw.lower() != "auto" else None,
        n_pulses=int(prec_sec.get("n_pulses", 100_000)),
        pairs=pairs,
    )
    enabled: tuple[int, ...] = ()
    if "enabled" in tdc_sec and tdc_sec["enabled"].strip().lower() != "all":
        enabled = _ints(tdc_sec["enabled"])
    windows = _floats(ses, "windows_ps", "1000")
    return ExperimentConfig(
        tdc=tdc,
        link=link,
        detectors=detectors,
        clock=clock,
        dnl_spec=tdc_sec.get("dnl", "uniform").strip(),
        jitter_sigma=_floats(tdc_sec, "jitter_sigma_ps"),
        enabled_channels=enabled,
        offset_bound=_float(clk_sec, "offset_bound_ps", 450_000.0),
        session_length_s=_float(ses, "length_s", 0.01),
        basis_bias=_float(ses, "basis_bias", 0.5),
        bit_bias=_float(ses, "bit_bias", 0.5),
        disclose_fraction=_float(ses, "disclose_fraction", 0.1),
        windows=windows,
        analysis_window=_float(ses, "analysis_window_ps", windows[0] if windows else 0.0),
        f_ec=_float(ses, "f_ec", 1.16),
        sync_jitter_sigma=_float(ses, "sync_jitter_sigma_ps", 60.0),
        seed=int(ses["seed"]),
        calibration_samples=int(ses.get("calibration_samples", 1_000_000)),
        buffer_depth=int(p.get("output", "buffer_depth", fallback=65_536)),
        link_rate=_float(p["output"] if p.has_section("output") else {}, "link_rate_bytes_per_s", 35e6),
        precision=precision,
    )


def reference_config_text() -> str:
    """The shipped reference configuration (verbatim INI text)."""
    return (
        resources.files("qkdstation.data").joinpath("reference.ini").read_text()
    )


def _reference_parser() -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(reference_config_text())
    return parser


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
