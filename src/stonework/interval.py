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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .boolalg import check_cap
from .errors import OutOfRange
from .profinite import RelGraph, RelGraphTower


@dataclass(frozen=True, order=False)
class Dyadic:
    """Exact dyadic rational num/2^exp, normalized to an odd numerator."""

    num: int
    exp: int

    def __post_init__(self):
        if self.exp < 0:
            raise ValueError("negative exponent")
        num, exp = self.num, self.exp
        while exp > 0 and num % 2 == 0:
            num //= 2
            exp -= 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def _cmp_key(self, other: "Dyadic") -> tuple[int, int]:
        e = max(self.exp, other.exp)
        return self.num << (e - self.exp), other.num << (e - other.exp)

    def __lt__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_key(other)
        return a < b

    def __le__(self, other: "Dyadic") -> bool:
        a, b = self._cmp_key(other)
        return a <= b

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) + (other.num << (e - other.exp)), e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) - (other.num << (e - other.exp)), e)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.num), self.exp)

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/2^{self.exp}"


D0 = Dyadic(0, 0)
D1 = Dyadic(1, 0)


@dataclass(frozen=True)
class BitWord:
    """Finite bit list; leading zeros are significant."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    @staticmethod
    def parse(text: str) -> "BitWord":
        return BitWord(tuple(int(c) for c in text.strip()))

    @property
    def length(self) -> int:
        return len(self.bits)

    @property
    def value(self) -> int:
        """Integer value with bit 0 most significant."""
        k = 0
        for b in self.bits:
            k = 2 * k + b
        return k

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def all_words(n: int) -> list[BitWord]:
    return [BitWord(bits) for bits in itertools.product((0, 1), repeat=n)]


def cs_value(w: BitWord) -> Dyadic:
    """Truncated binary-expansion value sum bits(i)/2^(i+1) = k/2^n."""
    return Dyadic(w.value, w.length)


def _check_lengths(n: int, s: BitWord, t: BitWord) -> None:
    if s.length != n or t.length != n:
        raise ValueError(f"expected words of length {n}, got {s.length} and {t.length}")


def near(n: int, s: BitWord, t: BitWord) -> bool:
    """Nearness as adjacency: |value(s) - value(t)| <= 1."""
    _check_lengths(n, s, t)
    return abs(s.value - t.value) <= 1


def _pattern(u: tuple[int, ...], first: int, repeat: int, n: int) -> tuple[int, ...]:
    word = u + (first,) + (repeat,) * max(n - len(u) - 1, 0)
    return word[:n]


def near_companion(n: int, s: BitWord, t: BitWord) -> bool:
    """Nearness via an exhaustive search for a common witness prefix u.

    Both words must be truncations of u.0.111... or u.1.000... for a single
    u of length m <= n.
    """
    _check_lengths(n, s, t)
    for m in range(n + 1):
        for u in itertools.product((0, 1), repeat=m):
            p0 = _pattern(u, 0, 1, n)
            p1 = _pattern(u, 1, 0, n)
            if s.bits in (p0, p1) and t.bits in (p0, p1):
                return True
    return False


def interval_graph(n: int, cap: Optional[int] = None) -> RelGraph:
    """Vertices 0..2^n-1 with |i-j| <= 1 related."""
    check_cap(n, cap)
    size = 2**n
    related = set()
    for i in range(size):
        related.add((i, i))
        if i + 1 < size:
            related.add((i, i + 1))
            related.add((i + 1, i))
    return RelGraph(tuple(range(size)), frozenset(related))


def circle_graph(n: int, cap: Optional[int] = None) -> RelGraph:
    """Interval graph plus the wrap-around pair between 0 and 2^n - 1."""
    g = interval_graph(n, cap)
    size = 2**n
    related = set(g.related)
    related.add((0, size - 1))
    related.add((size - 1, 0))
    return RelGraph(g.vertices, frozenset(related))


def restrict_graph_map(n: int, cap: Optional[int] = None) -> dict[int, int]:
    """Drop-last-bit vertex map from level n+1 down to level n."""
    check_cap(n + 1, cap)
    return {k: k // 2 for k in range(2 ** (n + 1))}


def interval_tower(depth: int, cap: Optional[int] = None) -> RelGraphTower:
    """Levels interval_graph(0..depth-1) with bit-truncation transitions."""
    levels = tuple(interval_graph(n, cap) for n in range(depth))
    transitions = tuple(restrict_graph_map(n, cap) for n in range(depth - 1))
    return RelGraphTower(levels, transitions)


def circle_tower(depth: int, cap: Optional[int] = None) -> RelGraphTower:
    levels = tuple(circle_graph(n, cap) for n in range(depth))
    transitions = tuple(restrict_graph_map(n, cap) for n in range(depth - 1))
    return RelGraphTower(levels, transitions)


@dataclass(frozen=True)
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
            raise ValueError(f"bad kind {self.kind!r}")
        for lo, hi in self.parts:
            if self.kind == "closed" and not lo <= hi:
                raise ValueError("part with lo > hi")
            if self.kind == "open" and not lo < hi:
                raise ValueError("empty open part")
        for (_, hi), (lo, _) in zip(self.parts, self.parts[1:]):
            if not hi < lo:
                raise ValueError("parts not sorted/disjoint")

    def contains(self, d: Dyadic) -> bool:
        for lo, hi in self.parts:
            if self.kind == "closed":
                if lo <= d <= hi:
                    return True
            else:
                inside = lo < d < hi
                at_zero = d == lo == D0
                at_one = d == hi == D1
                if inside or at_zero or at_one:
                    return True
        return False

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


def _dyadic_key(d: Dyadic) -> Fraction:
    return Fraction(d.num, 2**d.exp)


def closed_union(parts: Iterable[tuple[Dyadic, Dyadic]]) -> IntervalUnion:
    """Sort and maximally merge closed parts (overlapping or touching)."""
    items = sorted(parts, key=lambda p: (_dyadic_key(p[0]), _dyadic_key(p[1])))
    merged: list[list[Dyadic]] = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1]:
            if merged[-1][1] < hi:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return IntervalUnion("closed", tuple((lo, hi) for lo, hi in merged))


def cylinder_image(w: BitWord) -> IntervalUnion:
    """Closed image [cs(w), cs(w) + 1/2^|w|] of the cylinder at ``w``."""
    lo = cs_value(w)
    hi = lo + Dyadic(1, w.length)
    return IntervalUnion("closed", ((lo, hi),))


def decidable_image(ws: Sequence[BitWord]) -> IntervalUnion:
    """Merged union of the cylinder images of the given words."""
    parts = []
    for w in ws:
        lo = cs_value(w)
        parts.append((lo, lo + Dyadic(1, w.length)))
    return closed_union(parts)


def _gaps(parts: tuple[tuple[Dyadic, Dyadic], ...]) -> tuple[tuple[Dyadic, Dyadic], ...]:
    """The stretches of [0,1] before, between and after sorted disjoint parts."""
    edges = [D0, *itertools.chain.from_iterable(parts), D1]
    return tuple((lo, hi) for lo, hi in zip(edges[::2], edges[1::2]) if lo < hi)


def complement_closed_union(u: IntervalUnion) -> IntervalUnion:
    """Relative complement in [0,1] of a closed union, as open parts."""
    if u.kind != "closed":
        raise ValueError("expected a closed union")
    return IntervalUnion("open", _gaps(u.parts))


def complement_open_union(u: IntervalUnion) -> IntervalUnion:
    """Relative complement in [0,1] of an open union, as closed parts."""
    if u.kind != "open":
        raise ValueError("expected an open union")
    return IntervalUnion("closed", _gaps(u.parts))


@dataclass(frozen=True)
class FiberPoint:
    """Eventually constant binary sequence: finite prefix then a repeated bit."""

    prefix: BitWord
    repeat: int

    def truncate(self, m: int) -> BitWord:
        bits = (self.prefix.bits + (self.repeat,) * m)[:m]
        return BitWord(bits)

    def __str__(self) -> str:
        bar = "0..." if self.repeat == 0 else "1..."
        return f"{self.prefix}{bar}"


def cs_fiber(d: Dyadic) -> list[FiberPoint]:
    """The one or two binary expansions of a dyadic in [0,1].

    Interior points k/2^n have the terminating expansion w.1.000... and the
    co-terminating one w.0.111...; the endpoints have a single expansion.
    """
    if d < D0 or D1 < d:
        raise OutOfRange(str(d))
    if d == D0:
        return [FiberPoint(BitWord(()), 0)]
    if d == D1:
        return [FiberPoint(BitWord(()), 1)]
    # d = num/2^exp with num odd, 0 < num < 2^exp, exp >= 1
    bits = tuple((d.num >> (d.exp - 1 - i)) & 1 for i in range(d.exp))
    low = FiberPoint(BitWord(bits), 0)  # ...w 1 0 0 0
    high = FiberPoint(BitWord(bits[:-1] + (0,)), 1)  # ...w 0 1 1 1
    return [low, high]
