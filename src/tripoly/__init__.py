"""Exact triangulation polynomials of planar point configurations.

Import each name from the module that defines it (``tripoly.planar``,
``tripoly.transfer``, ``tripoly.neargon``, ...); the package root loads
no submodule.
"""
from __future__ import annotations

__version__ = "0.1.0"
