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
