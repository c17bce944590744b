"""Witness coefficient vectors alpha_1..alpha_4 and their closed forms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class WitnessParams:
    """Coefficients alpha_1..alpha_4 of the witness, with alpha_0 = 1 implicit."""

    kappa: Optional[float]
    p: float
    alpha: Tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"edge probability must lie in (0, 1], got {self.p}")
        if len(self.alpha) != 4:
            raise ValueError("alpha must have exactly four entries")
        if any(a < 0 for a in self.alpha):
            raise ValueError(f"alpha entries must be nonnegative, got {self.alpha}")

    @property
    def alpha1(self) -> float:
        return self.alpha[0]

    @property
    def alpha2(self) -> float:
        return self.alpha[1]

    @property
    def alpha3(self) -> float:
        return self.alpha[2]

    @property
    def alpha4(self) -> float:
        return self.alpha[3]

    def alpha_of_size(self, size: int) -> float:
        """alpha indexed by union size, alpha_0 = 1."""
        if not 0 <= size <= 4:
            raise ValueError(f"union sizes run from 0 to 4, got {size}")
        return ((1.0,) + self.alpha)[size]

    def by_union_size(self) -> np.ndarray:
        return np.array((1.0,) + self.alpha)

    @property
    def range_feasible(self) -> bool:
        """All alphas in [0, 1], as entry constraints require (not assumed)."""
        return all(a <= 1.0 for a in self.alpha)


def derive_alphas(kappa: float, p: float) -> WitnessParams:
    """Closed-form coefficients (kappa, 2 kappa^2/p, kappa^3/p^3, 8 kappa^4/p^6)."""
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"edge probability must lie in (0, 1], got {p}")
    alpha = (
        kappa,
        2.0 * kappa**2 / p,
        kappa**3 / p**3,
        8.0 * kappa**4 / p**6,
    )
    return WitnessParams(kappa=kappa, p=p, alpha=alpha)
