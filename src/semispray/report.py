"""Validation reports for the randomized identity checks.

Every randomized check records the seed it ran with so reports are exactly
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional


class ZeroStatus(str, Enum):
    PROVEN_ZERO = "proven-zero"
    LIKELY_ZERO = "likely-zero"
    NONZERO = "nonzero"


@dataclass(frozen=True)
class ZeroResult:
    status: ZeroStatus
    max_residual: float
    seed: int
    trials: int
    witness: Optional[dict] = None
    witness_value: Optional[float] = None
    method: Optional[str] = None  # how a sampled verdict was reached, when named
    evaluated: Optional[int] = None  # points of a float likely-zero not skipped as singular

    @property
    def is_zero(self) -> bool:
        return self.status is not ZeroStatus.NONZERO

    @property
    def proven(self) -> bool:
        return self.status is ZeroStatus.PROVEN_ZERO

    def to_dict(self) -> dict:
        out = {"status": self.status.value, "residual_max": self.max_residual,
               "seed": self.seed, "trials": self.trials}
        if self.evaluated is not None and self.evaluated < self.trials:
            out["evaluated"] = self.evaluated
        if self.witness is not None:
            out["witness"] = self.witness
            out["witness_value"] = self.witness_value
        if self.method is not None:
            out["method"] = self.method
        return out


@dataclass(frozen=True)
class CheckItem:
    label: str
    result: ZeroResult


@dataclass
class ValidationReport:
    check: str
    seed: int
    items: List[CheckItem] = field(default_factory=list)

    def add(self, label: str, result: ZeroResult):
        self.items.append(CheckItem(label, result))

    @property
    def passed(self) -> bool:
        return all(item.result.is_zero for item in self.items)

    @property
    def all_proven(self) -> bool:
        return all(item.result.proven for item in self.items)

    @property
    def max_residual(self) -> float:
        return max((item.result.max_residual for item in self.items), default=0.0)

    @property
    def first_failure(self) -> Optional[CheckItem]:
        for item in self.items:
            if not item.result.is_zero:
                return item
        return None

    def to_dict(self) -> dict:
        out = {
            "check": self.check,
            "status": "pass" if self.passed else "fail",
            "residual_max": self.max_residual,
            "seed": self.seed,
            "items": [{"label": i.label, **i.result.to_dict()} for i in self.items],
        }
        failure = self.first_failure
        if failure is not None and failure.result.witness is not None:
            out["witness"] = failure.result.witness
        return out
