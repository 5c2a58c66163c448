"""Predicate expressions for scan filters.

The dpCore accelerates range predicates with SETFL/SETFH + FILT — one
cycle per tuple per range term, accumulating into the bit-vector
register (paper §2.2). Predicates here are small trees of range terms
combined with AND/OR; each node knows:

* how to evaluate itself functionally on numpy columns,
* how many FILT passes the dpCore needs (its cycle cost),
* roughly how many scalar-equivalent x86 instructions it costs per
  row (AVX2 evaluates 8 rows per instruction; the baseline roofline
  uses this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .costs import FILTER_CYCLES_PER_TUPLE

__all__ = ["Predicate", "Between", "Eq", "Le", "Ge", "InSet", "And", "Or"]

# Combining two 64-row bitvector words costs one ALU op: ~1/64 cycle/row.
_COMBINE_CYCLES_PER_ROW = 1.0 / 64.0
# One AVX2 compare+mask op covers 8 rows; a range needs two compares.
_XEON_OPS_PER_RANGE_TERM = 2.0 / 8.0


class Predicate:
    """Base class: a boolean row predicate."""

    def mask(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def column_names(self) -> List[str]:
        raise NotImplementedError

    def filt_terms(self) -> int:
        """Number of FILT passes the dpCore evaluation needs."""
        raise NotImplementedError

    def dpu_cycles_per_row(self) -> float:
        terms = self.filt_terms()
        return terms * FILTER_CYCLES_PER_TUPLE + max(0, terms - 1) * (
            _COMBINE_CYCLES_PER_ROW
        )

    def xeon_ops_per_row(self) -> float:
        return self.filt_terms() * _XEON_OPS_PER_RANGE_TERM

    def __and__(self, other: "Predicate") -> "Predicate":
        return And([self, other])

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or([self, other])


@dataclass
class Between(Predicate):
    """``lo <= column <= hi`` — exactly one SETFL/SETFH/FILT pass."""

    column: str
    lo: float
    hi: float

    def mask(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        values = columns[self.column]
        return (values >= self.lo) & (values <= self.hi)

    def column_names(self) -> List[str]:
        return [self.column]

    def filt_terms(self) -> int:
        return 1


def Eq(column: str, value) -> Between:
    """Equality as a degenerate range (lo == hi)."""
    return Between(column, value, value)


def Le(column: str, hi) -> Between:
    """``column <= hi`` (lower bound at the type's floor)."""
    return Between(column, -(2**62), hi)


def Ge(column: str, lo) -> Between:
    """``column >= lo``."""
    return Between(column, lo, 2**62)


@dataclass
class InSet(Predicate):
    """``column IN (v1, v2, ...)`` — one FILT pass per member."""

    column: str
    values: Tuple

    def __init__(self, column: str, values: Sequence) -> None:
        self.column = column
        self.values = tuple(values)
        if not self.values:
            raise ValueError("InSet needs at least one value")

    def mask(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        values = columns[self.column]
        # OR-ed compares: for IN lists of a few values, ~100x faster
        # than np.isin on a 60k-row column.
        result = values == self.values[0]
        for value in self.values[1:]:
            result |= values == value
        return result

    def column_names(self) -> List[str]:
        return [self.column]

    def filt_terms(self) -> int:
        return len(self.values)


@dataclass
class And(Predicate):
    children: List[Predicate]

    def mask(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        result = self.children[0].mask(columns)
        for child in self.children[1:]:
            result = result & child.mask(columns)
        return result

    def column_names(self) -> List[str]:
        names: List[str] = []
        for child in self.children:
            for name in child.column_names():
                if name not in names:
                    names.append(name)
        return names

    def filt_terms(self) -> int:
        return sum(child.filt_terms() for child in self.children)


@dataclass
class Or(Predicate):
    children: List[Predicate]

    def mask(self, columns: Dict[str, np.ndarray]) -> np.ndarray:
        result = self.children[0].mask(columns)
        for child in self.children[1:]:
            result = result | child.mask(columns)
        return result

    def column_names(self) -> List[str]:
        names: List[str] = []
        for child in self.children:
            for name in child.column_names():
                if name not in names:
                    names.append(name)
        return names

    def filt_terms(self) -> int:
        return sum(child.filt_terms() for child in self.children)
