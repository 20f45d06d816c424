"""Exact dyadic machinery for the unit interval.

Finite binary words of length n name the dyadics k/2^n via the truncated
binary-expansion map; two words of equal length are near when their values
differ by at most one, equivalently when their dyadic values differ by at
most 1/2^n.  Decidable subsets of sequence space land in [0,1] as finite
unions of closed dyadic intervals, with open complements taken relative
to [0,1].
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .boolalg import check_cap
from .errors import BadArgument, InvariantViolated
from .profinite import RelGraph
from .record import record


@record
class Dyadic:
    """Exact dyadic rational num/2^exp, normalized to an odd numerator or
    exponent 0: the trailing zero bits of num, at most exp of them, are
    shifted out at once (every one of them when num is 0)."""

    num: int
    exp: int

    def __post_init__(self):
        if self.exp < 0:
            raise InvariantViolated("negative exponent")
        zeros = min((self.num & -self.num).bit_length() - 1, self.exp) if self.num else self.exp
        object.__setattr__(self, "num", self.num >> zeros)
        object.__setattr__(self, "exp", self.exp - zeros)

    def _cmp_key(self, other: "Dyadic") -> tuple[int, int]:
        e = max(self.exp, other.exp)
        return self.num << (e - self.exp), other.num << (e - other.exp)

    def __lt__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_key(other)
        return a < b

    def __le__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_key(other)
        return a <= b

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/2^{self.exp}"


D0 = Dyadic(0, 0)
D1 = Dyadic(1, 0)


def interval_graph(n: int) -> RelGraph:
    """Vertices 0..2^n-1 with |i-j| <= 1 related."""
    check_cap(n, f"interval graph at level {n}")
    size = 2**n
    adjacent = (tuple(range(max(i - 1, 0), min(i + 2, size))) for i in range(size))
    return RelGraph(tuple(range(size)), tuple(adjacent))


def circle_graph(n: int) -> RelGraph:
    """Interval graph plus the wrap-around pair between 0 and 2^n - 1."""
    check_cap(n, f"circle graph at level {n}")
    size = 2**n
    adjacent = (tuple(sorted({(i - 1) % size, i, (i + 1) % size})) for i in range(size))
    return RelGraph(tuple(range(size)), tuple(adjacent))


def restrict_graph_map(n: int) -> tuple[int, ...]:
    """Drop-last-bit vertex map from level n+1 down to level n, by position."""
    check_cap(n + 1, f"graph map from level {n + 1}")
    return tuple(k // 2 for k in range(2 ** (n + 1)))


@record
class IntervalUnion:
    """Normalized finite union of dyadic subintervals of [0,1].

    kind "closed": each part [lo, hi].  kind "open": each part is the open
    interval (lo, hi) taken relative to [0,1], so endpoints equal to 0 or 1
    belong to the part.
    """

    kind: str  # "closed" | "open"
    parts: tuple[tuple[Dyadic, Dyadic], ...]

    def __post_init__(self):
        if self.kind not in ("closed", "open"):
            raise InvariantViolated(f"bad kind {self.kind!r}")
        for lo, hi in self.parts:
            if self.kind == "closed" and not lo <= hi:
                raise InvariantViolated("part with lo > hi")
            if self.kind == "open" and not lo < hi:
                raise InvariantViolated("empty open part")
        for (_, hi), (lo, _) in zip(self.parts, self.parts[1:]):
            if not hi < lo:
                raise InvariantViolated("parts not sorted/disjoint")

    def __str__(self) -> str:
        if not self.parts:
            return "(empty)"
        if self.kind == "closed":
            return " u ".join(f"[{lo}, {hi}]" for lo, hi in self.parts)
        rendered = []
        for lo, hi in self.parts:
            left = "[" if lo == D0 else "("
            right = "]" if hi == D1 else ")"
            rendered.append(f"{left}{lo}, {hi}{right}")
        return " u ".join(rendered)


def closed_union(parts: Iterable[tuple[Dyadic, Dyadic]]) -> IntervalUnion:
    """Sort and maximally merge closed parts (overlapping or touching)."""
    items = sorted(parts)
    merged: list[list[Dyadic]] = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1]:
            if merged[-1][1] < hi:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return IntervalUnion("closed", tuple((lo, hi) for lo, hi in merged))


def decidable_image(words: Sequence[str]) -> IntervalUnion:
    """Merged union of the cylinder images of the given bit words: a word of
    n digits, the base-2 numeral k, covers [k/2^n, (k+1)/2^n]."""
    parts = []
    for w in words:
        if w.strip("01"):  # int(w, 2) would also take "_", "0b", a sign or a non-ASCII digit
            raise BadArgument(f"bit word {w!r} has a character other than 0 or 1")
        parts.append((Dyadic(k := int(w or "0", 2), len(w)), Dyadic(k + 1, len(w))))
    return closed_union(parts)


def _gaps(parts: tuple[tuple[Dyadic, Dyadic], ...]) -> tuple[tuple[Dyadic, Dyadic], ...]:
    """The stretches of [0,1] before, between and after sorted disjoint parts."""
    edges = [D0, *itertools.chain.from_iterable(parts), D1]
    return tuple((lo, hi) for lo, hi in zip(edges[::2], edges[1::2]) if lo < hi)


def complement_closed_union(u: IntervalUnion) -> IntervalUnion:
    """Relative complement in [0,1] of a closed union, as open parts."""
    if u.kind != "closed":
        raise InvariantViolated("expected a closed union")
    return IntervalUnion("open", _gaps(u.parts))
