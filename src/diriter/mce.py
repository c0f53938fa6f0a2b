"""Mean curvature on a strip: the circular-arc profile.

Across a strip of width d, the graph solving div(grad u / sqrt(1 + |grad u|^2))
= n H for constant H is a circular arc of radius 1 / (n H); it exists only
while the arc can span the strip, i.e. n |H| d / 2 < 1. The arc profile is the
analytic benchmark for the iterated solver on strip truncations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ArcSolution:
    """Arc profile u(y) spanning y in [-d/2, d/2]: (u' / sqrt(1 + u'^2))' = n H."""

    d: float
    H: float
    n: int = 2

    @property
    def valid(self) -> bool:
        return self.n * abs(self.H) * self.d / 2.0 < 1.0

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        if self.H == 0.0:
            return np.zeros_like(y)
        hh = self.n / 2 * self.H  # half the curvature n H; exactly H when n = 2
        return (np.sqrt(1.0 - hh * hh * self.d * self.d) - np.sqrt(1.0 - 4.0 * hh * hh * y * y)) / (
            2.0 * hh
        )
