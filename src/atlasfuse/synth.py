"""White-matter-nulled contrast synthesis from quantitative T1 maps.

Signal model: s = M0 * (1 - 2 * exp(-TI / T1)), T1 and TI in ms. The zero
crossing sits at T1 = TI / ln 2; voxels at or below the T1 floor (failed
fits, background) or with a non-finite M0 map to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryMismatch, NonPositiveTI
from .grid import VolumeGrid

DEFAULT_TI_MS = 750.0
T1_FLOOR_MS = 1.0  # a T1 at or below this is a failed fit or background


@dataclass
class SynthesisParams:
    ti_ms: float = DEFAULT_TI_MS
    m0: VolumeGrid | None = None  # None -> constant M0 = 1
    signed: bool = False  # default output is magnitude

    def __post_init__(self):
        if not (np.isfinite(self.ti_ms) and self.ti_ms > 0):
            raise NonPositiveTI(f"TI must be finite and positive, got {self.ti_ms}")


def null_point_t1(ti_ms: float) -> float:
    """T1 (ms) whose signal is nulled at the given inversion time."""
    return ti_ms / np.log(2.0)


def synthesize_wmn(t1_map: VolumeGrid, params: SynthesisParams | None = None) -> VolumeGrid:
    """Synthesize WMn contrast from a T1 map (ms)."""
    if params is None:
        params = SynthesisParams()
    t1 = t1_map.data
    if params.m0 is not None:
        if not params.m0.geometry.close_to(t1_map.geometry):
            raise GeometryMismatch("M0 volume geometry differs from T1 map")
        m0 = params.m0.data
    else:
        m0 = 1.0
    valid = (t1 > T1_FLOOR_MS) & np.isfinite(m0)
    out = np.zeros_like(t1, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        s = np.where(valid, m0, 0.0) * (1.0 - 2.0 * np.exp(-params.ti_ms / np.where(valid, t1, 1.0)))
    out[valid] = s[valid] if params.signed else np.abs(s)[valid]
    return t1_map.with_data(out)
