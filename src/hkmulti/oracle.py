"""Independent reference implementations used to cross-check the fast paths.

Everything here recomputes results from first principles with plain
loops and no shared helpers, deliberately duplicating logic that exists
elsewhere in the package.  Do not "simplify" these into calls to the
production code; the duplication is the point.

The dense N x N forms live here too: :class:`RowStochasticMatrix`, the
averaging matrix :func:`row_normalize` of an influence matrix, the
product :func:`matrix_apply` and the closed-form
:func:`induced_disagreement_seminorm`.  Production code works on
neighbor classes instead; these are what its results are compared with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .core import (
    MODEL_AVE,
    MODEL_KINDS,
    InfluenceMatrix,
    OpinionMatrix,
    Scalar,
    check_epsilon,
    is_finite,
)

DEFAULT_TAU_ROW = 1e-9


def rows_use_floats(rows: Iterable[Iterable[Scalar]]) -> bool:
    return any(isinstance(v, float) for row in rows for v in row)


@dataclass(frozen=True)
class RowStochasticMatrix:
    """Square nonnegative matrix with unit row sums.

    Row sums are checked at construction: exactly for int/Fraction entries,
    within ``DEFAULT_TAU_ROW`` when any entry is a float.  Inputs
    that fail are rejected rather than renormalized.
    """

    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if n == 0:
            raise ValueError("empty matrix")
        tol = DEFAULT_TAU_ROW if rows_use_floats(rows) else 0
        for row in rows:
            if len(row) != n:
                raise ValueError("row-stochastic matrix must be square")
            if any(not is_finite(v) or v < 0 for v in row):
                raise ValueError("entries must be finite and nonnegative")
            if abs(sum(row) - 1) > tol:
                raise ValueError(f"row sum {sum(row)} outside tolerance {tol}")

    @property
    def n_agents(self) -> int:
        return len(self.entries)


def row_normalize(phi: InfluenceMatrix, exact: bool = True) -> RowStochasticMatrix:
    """Divide each row of the dense influence matrix by its degree.

    Reflexivity keeps every degree positive.
    """
    rows = []
    for row in phi.entries:
        weight = Fraction(1, sum(row)) if exact else 1.0 / sum(row)
        rows.append(tuple(weight * v for v in row))
    return RowStochasticMatrix(tuple(rows))


def matrix_apply(a: RowStochasticMatrix, x: OpinionMatrix) -> OpinionMatrix:
    """Matrix product A @ X (row-wise convex combinations)."""
    if a.n_agents != x.n_agents:
        raise ValueError("matrix sizes do not match")
    rows = []
    for i in range(x.n_agents):
        arow = a.entries[i]
        rows.append(
            tuple(
                sum(arow[k] * x.entries[k][j] for k in range(x.n_agents))
                for j in range(x.n_topics)
            )
        )
    return OpinionMatrix(tuple(rows))


def induced_disagreement_seminorm(
    a: Union[RowStochasticMatrix, Sequence[Sequence[Scalar]]],
) -> Scalar:
    """Disagreement seminorm induced on a row-stochastic matrix.

    Computed by the closed form 1 - min over row pairs of the overlap
    sum_k min(A_ik, A_jk), summed left to right from int 0.  Lies in
    [0, 1] and equals 0 iff all rows coincide.  Non-row-stochastic input
    is rejected.
    """
    if not isinstance(a, RowStochasticMatrix):
        a = RowStochasticMatrix(tuple(tuple(row) for row in a))
    rows = a.entries
    n = len(rows)
    least = None
    for i in range(n):
        for j in range(i + 1, n):
            overlap = 0
            for p, q in zip(rows[i], rows[j]):
                overlap += min(p, q)
            if least is None or overlap < least:
                least = overlap
    if least is None:
        return 0
    return 1 - least


def induced_seminorm_bruteforce(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """Induced disagreement seminorm via the defining pairwise form.

    For row-stochastic A this equals max over row pairs of half the L1
    distance between the rows, which is what is computed here.
    """
    mat = [tuple(row) for row in rows]
    best: Scalar = 0
    for i in range(len(mat)):
        for j in range(i + 1, len(mat)):
            dist = 0
            for p, q in zip(mat[i], mat[j]):
                dist += abs(p - q)
            half = dist / Fraction(2)
            if half > best:
                best = half
    return best


def scalar_hk_step(values: Sequence[Scalar], epsilon: Scalar) -> tuple[Scalar, ...]:
    """One bounded-confidence step on a plain vector of scalar opinions."""
    check_epsilon(epsilon)
    vals = tuple(values)
    out = []
    for i, vi in enumerate(vals):
        total: Scalar = 0
        count = 0
        for vk in vals:
            if abs(vi - vk) <= epsilon:
                total += vk
                count += 1
        out.append(total / Fraction(count))
    return tuple(out)


def naive_model_step(x: OpinionMatrix, epsilon: Scalar, model: str) -> OpinionMatrix:
    """One step of either model, written as bare quadruple loops.

    Neighbor tests and averaging follow the definitions directly; the
    result must match the production step bit for bit in either
    arithmetic mode.
    """
    check_epsilon(epsilon)
    if model not in MODEL_KINDS:
        raise ValueError(f"unknown model {model!r}")
    rows = x.entries
    n = x.n_agents
    m = x.n_topics

    if model == MODEL_AVE:
        means = []
        for row in rows:
            total: Scalar = 0
            for v in row:
                total += v
            means.append(total / Fraction(m))

        def adjacent(i: int, k: int) -> bool:
            return abs(means[i] - means[k]) <= epsilon

    else:

        def adjacent(i: int, k: int) -> bool:
            worst: Scalar = 0
            for j in range(m):
                gap = abs(rows[i][j] - rows[k][j])
                if gap > worst:
                    worst = gap
            return worst <= epsilon

    out = []
    for i in range(n):
        nbrs = [k for k in range(n) if adjacent(i, k)]
        row = []
        for j in range(m):
            total = 0
            for k in nbrs:
                total += rows[k][j]
            row.append(total / Fraction(len(nbrs)))
        out.append(tuple(row))
    return OpinionMatrix(tuple(out))
