"""Integer-variable ILPs via binary decomposition (Section 1).

The paper's formulation restricts solutions to x ∈ {0,1}ⁿ and notes the
general case 0 ≤ x_i ≤ s_i reduces to it "by decomposing each variable
x_i into log s variables x_i^(1), ..., x_i^(log s) taking values in
{0,1}, where x_i^(k) represents the k-th bit of x_i".

This module implements that reduction faithfully:

* each integer variable becomes ⌈log₂(s_i + 1)⌉ binary variables with
  weights and coefficients scaled by powers of two,
* the top bit's multiplier is clamped so the representable range is
  exactly 0..s_i (a pure power-of-two expansion would overshoot),
* :meth:`IntegerReduction.decode` maps a binary solution back to
  integer values, and :meth:`IntegerReduction.encode` the reverse
  (used by round-trip property tests).

The binary instance's hypergraph places all bits of one variable in the
same constraints, so LOCAL distances are preserved up to the constant
blow-up the paper's remark implies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple, Type, TypeVar, Union

import numpy as np

from repro.ilp.instance import Constraint, CoveringInstance, PackingInstance
from repro.util.validation import require

_I = TypeVar("_I", PackingInstance, CoveringInstance)


def _bit_multipliers(upper: int) -> List[int]:
    """Multipliers m_1..m_k with Σ m_j = upper, each ≤ sum of previous + 1.

    Standard bounded-integer binary expansion: powers of two
    1, 2, 4, ..., with the final multiplier clamped to
    ``upper - (2^{k-1} - 1)``; every integer in [0, upper] is
    representable and nothing above it is.
    """
    require(upper >= 1, f"upper bound must be >= 1, got {upper}")
    multipliers: List[int] = []
    covered = 0
    power = 1
    while covered < upper:
        take = min(power, upper - covered)
        multipliers.append(take)
        covered += take
        power *= 2
    return multipliers


@dataclass(frozen=True)
class IntegerReduction:
    """A binary instance plus the bit layout of the original variables."""

    instance: Union[PackingInstance, CoveringInstance]
    #: per original variable: list of (binary index, multiplier)
    bit_layout: Tuple[Tuple[Tuple[int, int], ...], ...]

    @property
    def num_original_variables(self) -> int:
        return len(self.bit_layout)

    def decode(self, chosen: Set[int]) -> List[int]:
        """Binary solution -> integer values per original variable."""
        values = []
        for bits in self.bit_layout:
            values.append(
                sum(mult for idx, mult in bits if idx in chosen)
            )
        return values

    def encode(self, values: Sequence[int]) -> Set[int]:
        """Integer values -> a canonical binary solution (greedy bits).

        Raises ``ValueError`` when a value exceeds its variable's range.
        """
        require(
            len(values) == self.num_original_variables,
            "one value per original variable required",
        )
        chosen: Set[int] = set()
        for value, bits in zip(values, self.bit_layout, strict=True):
            remaining = int(value)
            require(remaining >= 0, "values must be non-negative")
            for idx, mult in sorted(bits, key=lambda b: -b[1]):
                if mult <= remaining:
                    chosen.add(idx)
                    remaining -= mult
            require(
                remaining == 0,
                f"value {value} not representable with this bit layout",
            )
        return chosen


def _expand(
    cls: Type[_I],
    weights: Sequence[float],
    constraints: Sequence[Constraint],
    upper_bounds: Sequence[int],
    name: str,
) -> IntegerReduction:
    require(
        len(weights) == len(upper_bounds),
        "one upper bound per variable required",
    )
    base = cls(weights, constraints)
    layout: List[List[Tuple[int, int]]] = []
    multipliers: List[int] = []
    for s in upper_bounds:
        bits = _bit_multipliers(int(s))
        layout.append([(len(multipliers) + k, mult) for k, mult in enumerate(bits)])
        multipliers.extend(bits)
    scale = np.array(multipliers, dtype=np.float64)
    width = np.array([len(bits) for bits in layout], dtype=np.intp)
    first = np.cumsum(width) - width
    # Entry (j, v, c) becomes (j, bit, c * multiplier) for each bit of v.
    reps = width[base.indices]
    ends = np.cumsum(reps)
    offsets = np.arange(reps.sum()) - np.repeat(ends - reps, reps)
    indices = np.repeat(first[base.indices], reps) + offsets
    instance = cls.from_csr(
        np.repeat(base.weights, width) * scale,
        np.concatenate(([0], ends))[base.indptr],
        indices,
        np.repeat(base.data, reps) * scale[indices],
        base.bounds,
        name=name,
    )
    return IntegerReduction(
        instance=instance,
        bit_layout=tuple(tuple(bits) for bits in layout),
    )


def integer_packing_to_binary(
    weights: Sequence[float],
    constraints: Sequence[Constraint],
    upper_bounds: Sequence[int],
    name: str = "integer-packing",
) -> IntegerReduction:
    """Reduce ``max w·x, Ax <= b, 0 <= x_i <= s_i`` to binary packing."""
    return _expand(PackingInstance, weights, constraints, upper_bounds, name)


def integer_covering_to_binary(
    weights: Sequence[float],
    constraints: Sequence[Constraint],
    upper_bounds: Sequence[int],
    name: str = "integer-covering",
) -> IntegerReduction:
    """Reduce ``min w·x, Ax >= b, 0 <= x_i <= s_i`` to binary covering."""
    return _expand(CoveringInstance, weights, constraints, upper_bounds, name)
