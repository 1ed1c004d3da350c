"""Simulation and calibration toolkit for triply resonant
piezo-optomechanical microwave-optical transducers."""

__version__ = "0.1.0"
