"""Data-driven optimal power flow for radial grids.

Builds behavioral (Hankel-based) representations of trigonometrically
lifted line power flow from trajectory data, poses reference / data-driven
/ convex-relaxed / topology-agnostic OPF variants over them, and closes the
loop with a microgrid MPC driven by an embedded mixed-binary conic solver.
"""

from . import behavior, cli, conic, excitation, files, grid, ipm, microgrid, mip, opf, physics
from .errors import DdopfError

__all__ = [
    "behavior",
    "cli",
    "conic",
    "excitation",
    "files",
    "grid",
    "ipm",
    "microgrid",
    "mip",
    "opf",
    "physics",
    "DdopfError",
]

__version__ = "0.1.0"
