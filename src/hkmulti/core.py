"""Matrix and seminorm primitives shared by both bounded-confidence models.

All containers are immutable tuples and every operation is a pure function
of its inputs, so values are safe to share between threads.

Two scalar regimes coexist: exact arithmetic on ints and
:class:`fractions.Fraction`, and IEEE floats.  Arithmetic follows the
scalar type of the data (dividing by ``Fraction(count)`` keeps exact
inputs exact while float inputs stay float); :class:`NumericPolicy`
decides how external inputs are coerced and which tolerances
comparisons use.

An agent's neighbor set depends only on its own opinion row, and the
dynamics merge agents into clusters of equal rows, so equal agents are
computed once: each part of a step runs once per distinct row, mean or
neighbor set (:func:`distinct`) and agents with equal values share the
result.  Values are grouped by ``==``, so ``0.0`` and ``-0.0`` form one
class; every difference and comparison the rules take treats them alike.
:class:`InfluenceMatrix` keeps exactly this structure, the class of each
agent and the neighbor classes of each class as runs of consecutive class
numbers.  The ``ave`` rule numbers its classes by mean, so each class has
one run, a window over the sorted means, and the matrix is checked with
O(N + C) big-int operations.  Every consumer (:func:`neighbor_means`,
:func:`contraction_factor`, the JSONL ``classes`` and ``runs``, the
``averaging-matrix`` check) reads the runs directly.  The dense N x N
matrix is a view for outside readers; the dense averaging matrix and its
seminorm are references in :mod:`hkmulti.oracle`.
:class:`OpinionMatrix` therefore holds floats only or exact values
only: a float equal to a Fraction would share its class but not its
arithmetic.
"""

from __future__ import annotations

import math
import re
import reprlib
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, combinations, compress, count, repeat
from operator import add, or_, xor
from typing import Hashable, Iterable, Sequence, TypeVar, Union

Scalar = Union[int, float, Fraction]
K = TypeVar("K", bound=Hashable)
# (lo, hi): the consecutive class numbers lo..hi, both ends included
Run = tuple[int, int]

MODE_EXACT = "exact"
MODE_FLOAT = "float"

MODEL_AVE = "ave"
MODEL_UNIFORM = "uniform"
MODEL_KINDS = (MODEL_AVE, MODEL_UNIFORM)

DEFAULT_TAU_FIX = 1e-12
DEFAULT_TAU_CLUSTER = 1e-9
# Python's default limit on int-string digits; four digits long
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _printable(value: Fraction) -> Fraction:
    """``value``, or OverflowError if ``str`` cannot print it under the
    interpreter's int-string digit limit."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    big = max(abs(value.numerator), value.denominator)
    # 2**(3 * limit) < 10**limit, so short values skip the power
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        raise OverflowError
    return value


class PropertyViolation(AssertionError):
    """A structural guarantee of the dynamics failed to hold on actual data."""


def check_epsilon(epsilon: Scalar) -> None:
    if not is_finite(epsilon) or epsilon <= 0:
        raise ValueError("confidence bound must be positive and finite")


def is_finite(value: Scalar) -> bool:
    """ints and Fractions are always finite; floats must pass isfinite."""
    return not isinstance(value, float) or math.isfinite(value)


def left_sum(values: Iterable[Scalar]) -> Scalar:
    """Sum from int 0, strictly left to right, as the oracle's loops do.

    The built-in ``sum`` adds floats with compensated summation since
    Python 3.12, which rounds differently from a plain running total.
    """
    return reduce(add, values, 0)


def distinct(values: Iterable[K]) -> tuple[list[K], list[int]]:
    """The distinct values in first-seen order, and each item's index among them."""
    index: dict[K, int] = {}
    labels = [index.setdefault(v, len(index)) for v in values]
    return list(index), labels


def sorted_windows(values: Sequence[Scalar], epsilon: Scalar) -> list[slice]:
    """For each of the ascending ``values``, the slice of positions within epsilon of it.

    ``abs(a - b) <= epsilon`` holds on one run of positions whose ends
    never move back as ``a`` grows, so two pointers find every window;
    in float mode too, by the monotone rounding argument of
    :mod:`hkmulti.avemodel`.  Repeated values get equal windows.
    """
    out = []
    lo = 0
    end = 1
    for a in values:
        while abs(a - values[lo]) > epsilon:
            lo += 1
        while end < len(values) and abs(a - values[end]) <= epsilon:
            end += 1
        out.append(slice(lo, end))
    return out


# maps the digits of bin() to the bytes 0 and 1, for itertools.compress
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def topic_windows(
    rows: Iterable[Sequence[Scalar]], tol: Scalar
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Each row's class, and each class's per-topic windows as bitsets of classes.

    Classes are the distinct rows numbered in topic-0 order (ties in
    first-seen order), so the classes of a topic-0 window are consecutive
    numbers.  On each topic the classes sorted by value have one window
    each (:func:`sorted_windows`, within ``tol``), and a window is a run
    of that order, so its bitset is the difference of two prefix bitsets.
    ``tol`` may be 0.
    """
    classes, labels = distinct(rows)
    order = sorted(range(len(classes)), key=[row[0] for row in classes].__getitem__)
    rank = [0] * len(classes)
    for c, seen in enumerate(order):
        rank[seen] = c
    classes = list(map(classes.__getitem__, order))
    labels = list(map(rank.__getitem__, labels))
    per_topic = []
    for column in zip(*classes):
        order = sorted(range(len(classes)), key=column.__getitem__)
        prefix = [0]
        for c in order:
            prefix.append(prefix[-1] | 1 << c)
        masks = [0] * len(classes)
        for c, w in zip(order, sorted_windows([column[c] for c in order], tol)):
            masks[c] = prefix[w.stop] ^ prefix[w.start]
        per_topic.append(masks)
    return labels, list(zip(*per_topic))


# bit numbers for compress to pick from, built once: count() would
# allocate an int for every bit, which doubles the time for 1000 bits
_INDEX = tuple(range(1 << 10))


def mask_members(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first."""
    bits = bin(mask)[:1:-1].encode().translate(_BITS)
    return list(compress(_INDEX if len(bits) <= len(_INDEX) else count(), bits))


def mask_runs(mask: int) -> tuple[Run, ...]:
    """The maximal runs of set bits of ``mask`` as (lo, hi) positions, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        # adding the lowest bit carries through its run into the bit above it
        top = (mask + low) & ~mask
        out.append((low.bit_length() - 1, top.bit_length() - 2))
        mask &= -top
    return tuple(out)


@dataclass(frozen=True)
class NumericPolicy:
    """Arithmetic mode plus the tolerances used by comparisons.

    ``tau_fix`` bounds the max-abs state difference that still counts as a
    fixed point, ``tau_cluster`` the difference that still counts as equal
    opinions.  Exact mode forces both to zero.
    """

    mode: str
    tau_fix: Scalar = 0
    tau_cluster: Scalar = 0

    def __post_init__(self) -> None:
        if self.mode not in (MODE_EXACT, MODE_FLOAT):
            raise ValueError(f"unknown numeric mode {self.mode!r}")
        for name in ("tau_fix", "tau_cluster"):
            value = getattr(self, name)
            if not is_finite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative")
            if self.mode == MODE_EXACT and value != 0:
                raise ValueError("exact mode requires zero tolerances")

    @classmethod
    def exact(cls) -> "NumericPolicy":
        return cls(MODE_EXACT)

    @classmethod
    def floating(
        cls,
        tau_fix: float = DEFAULT_TAU_FIX,
        tau_cluster: float = DEFAULT_TAU_CLUSTER,
    ) -> "NumericPolicy":
        return cls(MODE_FLOAT, tau_fix, tau_cluster)

    @property
    def is_exact(self) -> bool:
        return self.mode == MODE_EXACT

    def coerce(self, value: Union[Scalar, str]) -> Scalar:
        """Convert a number or numeric string to this policy's scalar type.

        Exact mode maps floats to their exact binary value and parses
        strings ("0.25", "1/3") exactly; float mode rounds to double.
        Values that have no such form ("1/0", None, True, or "1e400" in
        float mode) raise ValueError: a JSON ``true`` is no number, though
        ``bool`` is an ``int``.  So do strings with a decimal exponent
        beyond ``MAX_DECIMAL_EXPONENT``: ``Fraction`` would build
        ``10**|exponent|`` for them.  So do exact values that ``str``
        cannot print under the interpreter's int-string digit limit
        ("1e-4300", "12e4299"), as no file could hold them.  The message
        quotes the input, cut short when it is long.
        """
        number = value
        try:
            if isinstance(value, bool):
                raise TypeError
            if isinstance(value, str):
                found = _EXPONENT.search(value)
                digits = found[1].replace("_", "").lstrip("0") if found else ""
                if len(digits) > 4 or int(digits or 0) > MAX_DECIMAL_EXPONENT:
                    raise ValueError(
                        f"{reprlib.repr(value)} has a decimal exponent beyond "
                        f"{MAX_DECIMAL_EXPONENT}"
                    )
                number = Fraction(value)
            return _printable(Fraction(number)) if self.is_exact else float(number)
        except (OverflowError, TypeError, ZeroDivisionError):
            raise ValueError(f"{reprlib.repr(value)} is not a representable number") from None

    def coerce_rows(
        self, rows: Iterable[Iterable[Union[Scalar, str]]]
    ) -> tuple[tuple[Scalar, ...], ...]:
        return tuple(tuple(self.coerce(v) for v in row) for row in rows)


@dataclass(frozen=True)
class OpinionMatrix:
    """N x m matrix; row i holds agent i's opinions on the m topics."""

    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if not rows or not rows[0]:
            raise ValueError("need at least one agent and one topic")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged opinion matrix")
            for v in row:
                if not is_finite(v):
                    raise ValueError("opinion entries must be finite")
        floats = sum(isinstance(v, float) for row in rows for v in row)
        if 0 < floats < len(rows) * width:
            raise ValueError("opinion entries mix floats with exact values")

    @classmethod
    def _trusted(cls, entries: tuple[tuple[Scalar, ...], ...]) -> "OpinionMatrix":
        """A matrix over ``entries`` without the checks above: for kernel
        output whose shape and regime follow from a checked input, and
        whose caller has checked that its floats are finite."""
        x = object.__new__(cls)
        object.__setattr__(x, "entries", entries)
        return x

    @property
    def n_agents(self) -> int:
        return len(self.entries)

    @property
    def n_topics(self) -> int:
        return len(self.entries[0])

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(row[j] for row in self.entries)


@dataclass(frozen=True)
class AverageVector:
    """Length-N vector of per-agent mean opinions."""

    values: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("empty average vector")
        if any(not is_finite(v) for v in vals):
            raise ValueError("average entries must be finite")


@dataclass(frozen=True)
class InfluenceMatrix:
    """Interaction graph of agents, held as classes of agents with equal neighbors.

    ``labels[i]`` is agent i's class, numbered 0..C-1; ``runs[c]`` holds
    the classes class c listens to, c itself included, as maximal disjoint
    runs ``(lo, hi)`` of consecutive class numbers in ascending order.  The
    ``ave`` rule gives every class one run, a window over the classes
    sorted by mean.  Construction checks the numbering, the runs,
    reflexivity and symmetry; each class's row is tested against its
    column of the transpose as bitsets of classes, with O(runs) big-int
    operations, so an ``ave`` matrix costs O(N + C) of them.  Runs given
    as lists are stored as tuples.
    :attr:`class_neighbors` and :attr:`entries` are expanded views.
    """

    labels: tuple[int, ...]
    runs: tuple[tuple[Run, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        # equal runs share one tuple: under the ``uniform`` rule a one-class
        # run (d, d) recurs in the runs of most neighbors of d
        shared: dict[Run, Run] = {}
        runs = []
        for pairs in self.runs:
            pairs = list(map(tuple, pairs))
            runs.append(tuple(map(shared.setdefault, pairs, pairs)))
        object.__setattr__(self, "runs", tuple(runs))
        if not self.labels:
            raise ValueError("empty influence matrix")
        if set(self.labels) != set(range(len(self.runs))):
            raise ValueError("labels must number the classes 0..C-1, each with an agent")
        self._check_runs()

    def _check_runs(self) -> None:
        n = len(self.runs)
        # ones[k] has bits 0..k-1 set, so run (lo, hi) is ones[hi + 1] - ones[lo]
        ones = [(1 << k) - 1 for k in range(n + 1)]
        rows = []
        # column c of the matrix, as a bitset of classes, is the running XOR
        # of flips[0..c]: bit d flips where a run of class d starts and
        # again just past its end
        flips = [0] * (n + 1)
        for d, runs in enumerate(self.runs):
            bit = 1 << d
            row = 0
            # one past the end of the last run
            end = -1
            for lo, hi in runs:
                # the first run starts at 0 or later, each next one past
                # the gap after the last, and none ends past n - 1
                if not end < lo <= hi < n:
                    if lo < 0 or hi >= n:
                        raise ValueError("neighbor classes must be in range")
                    raise ValueError("neighbor runs must be sorted, disjoint and maximal")
                end = hi + 1
                row += ones[end] - ones[lo]
                flips[lo] ^= bit
                flips[end] ^= bit
            if not row >> d & 1:
                raise ValueError("every agent must be its own neighbor")
            rows.append(row)
        if list(accumulate(flips[:n], xor)) != rows:
            raise ValueError("influence matrix must be symmetric")

    @property
    def n_agents(self) -> int:
        return len(self.labels)

    @property
    def class_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each class's neighbor classes, sorted: its runs expanded."""
        return tuple(
            tuple(chain.from_iterable(range(lo, hi + 1) for lo, hi in runs))
            for runs in self.runs
        )

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense N x N 0/1 adjacency, built anew on each read; a class shares one row."""
        rows = []
        for nbrs in self.class_neighbors:
            linked = dict.fromkeys(nbrs, 1)
            rows.append(tuple(map(linked.get, self.labels, repeat(0))))
        return tuple(map(rows.__getitem__, self.labels))

    def neighbor_sets(self) -> list[int]:
        """For each class, its neighbor agents as a bitset: bit k is agent k.

        A run's agents are the difference of two prefix ORs of the classes'
        member bitsets, so :func:`mask_members` lists them in ascending
        order with no merge of member lists.
        """
        members = [0] * len(self.runs)
        for k, c in enumerate(self.labels):
            members[c] |= 1 << k
        prefix = list(accumulate(members, or_, initial=0))
        sets = []
        for runs in self.runs:
            agents = 0
            for lo, hi in runs:
                agents |= prefix[hi + 1] ^ prefix[lo]
            sets.append(agents)
        return sets


@dataclass(frozen=True)
class StepReport:
    """One synchronous update: the post-step state and the pre-step neighbors.

    Everything else about the step (means, ranges, the averaging matrix,
    its contraction factor) follows from these two and is computed by
    whoever asks for it.
    """

    next_state: OpinionMatrix
    influence: InfluenceMatrix


def _divide(total: Scalar, count: int) -> Scalar:
    # a float divided by the int rounds exactly as dividing by
    # Fraction(count) does; exact totals divide by a Fraction so ints stay exact
    return total / count if isinstance(total, float) else total / Fraction(count)


def row_average(x: OpinionMatrix) -> AverageVector:
    """Per-agent mean opinion across topics."""
    m = x.n_topics
    return AverageVector(tuple(_divide(left_sum(row), m) for row in x.entries))


def disagreement_seminorm(values: Sequence[Scalar]) -> Scalar:
    """Largest pairwise gap max_{i,j} |v_i - v_j|; zero for a single value.

    Vanishes exactly on constant vectors, which is why it measures
    disagreement rather than magnitude.
    """
    if not values:
        raise ValueError("empty vector")
    return max(values) - min(values)


def contraction_factor(phi: InfluenceMatrix, exact: bool) -> Scalar:
    """Induced disagreement seminorm of the averaging matrix of ``phi``.

    That matrix (:func:`hkmulti.oracle.row_normalize`) divides each row
    of ``phi`` by its degree.  Rows i and j of it share |N_i & N_j|
    entries, each of weight 1/max(d_i, d_j), so the closed form of the
    dense reference :func:`hkmulti.oracle.induced_disagreement_seminorm`
    (Seneta's ergodicity coefficient) needs only neighbor-set overlaps.
    Float overlaps add the weight term by term from 0.0, as the dense
    sum does, so both forms agree bit for bit.  Only distinct neighbor sets are paired; a
    set shared by two agents also overlaps itself.  One agent gives 0.

    When the neighbor runs of the first and the last class cannot meet
    (their spans do not overlap as intervals), that pair shares no agent
    and the result is 1 - 0 at once.  For the ``ave`` rule, whose classes
    are windows over the sorted means with nondecreasing ends (Blondel,
    Hendrickx & Tsitsiklis, IEEE TAC 2009), the test is exact: if the two
    extreme windows meet, every pair meets.
    """
    first, last = phi.runs[0], phi.runs[-1]
    if first[-1][1] < last[0][0] or last[-1][1] < first[0][0]:
        return 1 - _overlap(0, 1, exact)
    # neighbor sets as agent bitsets; a popcount is a degree or an overlap
    sets, set_of = distinct(phi.neighbor_sets())
    sized = [(s, s.bit_count()) for s in sets]
    keys = {
        ((a & b).bit_count(), max(da, db))
        for (a, da), (b, db) in combinations(sized, 2)
    }
    repeats = Counter(map(set_of.__getitem__, phi.labels))
    keys.update((d, d) for c, (_, d) in enumerate(sized) if repeats[c] > 1)
    if not keys:
        return 0
    return 1 - min(_overlap(count, degree, exact) for count, degree in keys)


def _overlap(count: int, degree: int, exact: bool) -> Scalar:
    if exact:
        return Fraction(count, degree)
    total, weight = 0.0, 1.0 / degree
    for _ in range(count):
        total += weight
    return total


def topic_range(x: OpinionMatrix, topic: int) -> Scalar:
    """Opinion range on one topic: disagreement seminorm of that column."""
    if not 0 <= topic < x.n_topics:
        raise IndexError(f"topic {topic} out of range for {x.n_topics} topics")
    return disagreement_seminorm(x.column(topic))


def topic_hulls(x: OpinionMatrix) -> tuple[tuple[Scalar, Scalar], ...]:
    """Each topic's (min, max) opinion; ``max - min`` is its range."""
    return tuple((min(col), max(col)) for col in zip(*x.entries))


def global_range(x: OpinionMatrix) -> Scalar:
    """Largest per-topic opinion range."""
    return max(topic_range(x, j) for j in range(x.n_topics))


def neighbor_means(x: OpinionMatrix, influence: InfluenceMatrix) -> OpinionMatrix:
    """Replace each row by the mean of its neighbors' rows.

    One mean per distinct neighbor set, shared by the agents of every
    class with that set: under the ``ave`` rule neighboring classes often
    have the same window.  Each column sums in ascending agent order, then
    divides by the degree.  The result skips the constructor's checks: its
    shape and regime are those of ``x``, and each new float row passes one
    finiteness test, as a sum of finite floats can overflow.
    """
    if influence.n_agents != x.n_agents:
        raise ValueError("influence matrix does not match agent count")
    entries = x.entries
    floats = isinstance(entries[0][0], float)
    sets, set_of = distinct(influence.neighbor_sets())
    means = []
    for agents in map(mask_members, sets):
        columns = zip(*map(entries.__getitem__, agents))
        mean = tuple([_divide(left_sum(col), len(agents)) for col in columns])
        if floats and not all(map(math.isfinite, mean)):
            raise ValueError("opinion entries must be finite")
        means.append(mean)
    rows = list(map(means.__getitem__, set_of))
    return OpinionMatrix._trusted(tuple(map(rows.__getitem__, influence.labels)))


def matrices_close(x: OpinionMatrix, y: OpinionMatrix, tol: Scalar) -> bool:
    """Max-abs entry difference at most tol (exact equality when tol is 0)."""
    if x.n_agents != y.n_agents or x.n_topics != y.n_topics:
        raise ValueError("matrix shapes differ")
    return all(
        abs(p - q) <= tol for xr, yr in zip(x.entries, y.entries) for p, q in zip(xr, yr)
    )
