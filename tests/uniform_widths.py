"""The calibration block for a test that writes a time-tag file of its
own words: every time-tag file carries one."""

import numpy as np


def uniform_widths(cfg):
    """(n_channels, n_taps) widths of ideal lines, every tap one nominal LSB."""
    return np.full((cfg.n_channels, cfg.n_taps), cfg.nominal_tap)
