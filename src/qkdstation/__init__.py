"""Deterministic simulator of a satellite-ground QKD station's timing chain.

Subsystems: a tap-level delay-line TDC (:mod:`qkdstation.tdc`),
code-density calibration and the cable-delay precision test
(:mod:`qkdstation.calibration`), the BB84 photon link and sync comb
(:mod:`qkdstation.qkd`), clock recovery and sifting
(:mod:`qkdstation.sift`), bit-exact packing plus the rate-capped readout
path (:mod:`qkdstation.readout`), and the config/CLI layer
(:mod:`qkdstation.config`, :mod:`qkdstation.cli`,
:mod:`qkdstation.session`).
"""

from .calibration import (
    CalibrationTable,
    PrecisionReport,
    code_density_calibrate,
    decorrelation_cable_delay,
    precision_test,
    table_from_profile,
)
from .config import ExperimentConfig, load_config, reference_config
from .errors import (
    CalibrationError,
    ConfigError,
    FileFormatError,
    PackError,
    StationError,
    SyncRecoveryError,
)
from .qkd import (
    AliceBlock,
    ClockModel,
    DetectionSet,
    DetectorModel,
    LinkModel,
    TruthLedger,
    emit_sync,
    gen_random_code,
    simulate_link,
)
from .readout import (
    CounterBank,
    ReadoutBuffer,
    count_gated,
    pack_words,
    read_timetag_file,
    stream,
    unpack_words,
    write_timetag_file,
)
from .session import analyze_files, run_session
from .sift import (
    ClockEstimate,
    SiftReport,
    binary_entropy,
    match_pulses,
    recover_clock,
    secure_rate,
    sift,
    window_scan,
)
from .tdc import (
    ChannelState,
    DelayLineProfile,
    TdcConfig,
    build_delay_line,
    digitize_stream,
)

__version__ = "0.1.0"
