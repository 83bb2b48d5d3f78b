"""The symbolic domain for BGP network prefixes.

A prefix-list entry ``permit P/len ge G le L`` matches the set of route
networks that lie inside ``P/len`` and whose own prefix length falls in a
range.  :class:`PrefixAtom` captures exactly that shape — a covering
prefix plus an inclusive length window — and :class:`PrefixSpace` is a
finite union of atoms closed under intersection and complement, which is
all the guard algebra needs.

The complement of an atom decomposes into at most ``2 * len(P) + 2``
atoms: the *sibling* subtrees that diverge from ``P`` at each bit, the
shorter prefixes along the path to ``P``, and the in-``P`` length windows
outside ``[lo, hi]``.  The property tests in ``tests/analysis`` check
this decomposition against brute-force enumeration on small universes.

A space keeps two views of the same set:

* the **atom tuple**, in insertion order, is the carrier the algebra
  builds and the one :meth:`PrefixSpace.witness` and ``str()`` read —
  the witness is the all-zero extension of the first atom, so the order
  decides which differential route a user is shown;
* the **per-length encoding**, built lazily and once per space, holds
  for each prefix length ``l`` the sorted, merged ranges of ``l``-bit
  prefix values the atoms cover.  It is canonical — equal sets have
  equal encodings — so :meth:`PrefixSpace.is_subset_of` is a per-length
  range sweep instead of a complement, an intersection and an emptiness
  test.

Atoms are kept free of subsumed entries by :func:`_absorb`, which keeps
the atoms no other atom strictly subsumes (the first copy of
duplicates), in insertion order, using an index keyed by covering
prefix.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.netaddr import Ipv4Address, Ipv4Prefix

#: ``_MASKS[l]`` is the netmask of an ``l``-bit prefix as an integer.
_MASKS = tuple((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF for length in range(33))


@dataclasses.dataclass(frozen=True, init=False)
class PrefixAtom:
    """Networks within ``covering`` whose length lies in ``[lo, hi]``."""

    covering: Ipv4Prefix
    lo: int
    hi: int
    # The covering prefix as plain ints, so subsumption and intersection
    # are integer compares rather than Ipv4Prefix method calls.
    net: int = dataclasses.field(init=False, repr=False, compare=False)
    length: int = dataclasses.field(init=False, repr=False, compare=False)
    mask: int = dataclasses.field(init=False, repr=False, compare=False)

    def __init__(self, covering: Ipv4Prefix, lo: int, hi: int) -> None:
        length = covering.length
        if not length <= lo <= hi <= 32:
            raise ValueError(
                f"invalid length window [{lo}, {hi}] for {covering}"
            )
        # One dict update instead of six frozen-dataclass setattr calls:
        # atoms are built in the algebra's innermost loops.
        self.__dict__.update(
            covering=covering,
            lo=lo,
            hi=hi,
            net=covering.network.value,
            length=length,
            mask=_MASKS[length],
        )

    @classmethod
    def universe(cls) -> "PrefixAtom":
        return _UNIVERSE_ATOM

    @classmethod
    def exact(cls, prefix: Ipv4Prefix) -> "PrefixAtom":
        return cls(prefix, prefix.length, prefix.length)

    def contains(self, network: Ipv4Prefix) -> bool:
        return (
            self.lo <= network.length <= self.hi
            and network.network.value & self.mask == self.net
        )

    def covers(self, other: "PrefixAtom") -> bool:
        """True if this atom's covering prefix contains ``other``'s."""
        return self.length <= other.length and other.net & self.mask == self.net

    def subsumes(self, other: "PrefixAtom") -> bool:
        """True if every network in ``other`` is in this atom."""
        return self.lo <= other.lo and other.hi <= self.hi and self.covers(other)

    def intersect(self, other: "PrefixAtom") -> Optional["PrefixAtom"]:
        # The narrower covering prefix wins; its own window already
        # starts at or past its length, so no clamp is needed.
        if self.covers(other):
            inner = other
        elif other.covers(self):
            inner = self
        else:
            return None
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        if lo == inner.lo and hi == inner.hi:
            return inner
        return PrefixAtom(inner.covering, lo, hi)

    def complement_atoms(self) -> Tuple["PrefixAtom", ...]:
        """Atoms whose union is exactly the complement of this atom."""
        out: List[PrefixAtom] = []
        net, length = self.net, self.length
        # (a) subtrees diverging from the covering prefix at each bit.
        for depth in range(1, length + 1):
            sibling = (net & _MASKS[depth]) ^ (1 << (32 - depth))
            out.append(PrefixAtom(_prefix(sibling, depth), depth, 32))
        # (b) strictly shorter prefixes along the path to the covering
        # prefix (they agree on their own bits but are not "within" it).
        for shorter in range(length):
            out.append(
                PrefixAtom(_prefix(net & _MASKS[shorter], shorter), shorter, shorter)
            )
        # (c) networks inside the covering prefix with lengths outside
        # the [lo, hi] window.
        if self.lo > length:
            out.append(PrefixAtom(self.covering, length, self.lo - 1))
        if self.hi < 32:
            out.append(PrefixAtom(self.covering, self.hi + 1, 32))
        return tuple(out)

    def witness(self) -> Ipv4Prefix:
        """An arbitrary network in this atom (the all-zero extension)."""
        return Ipv4Prefix.canonical(self.covering.network, self.lo)

    def __str__(self) -> str:
        if self.lo == self.hi == self.length:
            return str(self.covering)
        return f"{self.covering}:{self.lo}-{self.hi}"


def _prefix(net: int, length: int) -> Ipv4Prefix:
    return Ipv4Prefix(Ipv4Address(net), length)


_UNIVERSE_ATOM = PrefixAtom(_prefix(0, 0), 0, 32)


def _absorb(atoms: Sequence[PrefixAtom]) -> Tuple[PrefixAtom, ...]:
    """Drop atoms subsumed by other atoms (keeps the union small).

    Keeps, in insertion order, every atom that no other atom strictly
    subsumes, and only the first copy of duplicates.  An atom can only
    be subsumed by an atom whose covering prefix contains its own, so
    each atom looks up at most one covering per distinct covering
    length in the list instead of comparing against every kept atom.
    """
    if len(atoms) < 2:
        return tuple(atoms)
    windows: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
    for atom in atoms:
        windows.setdefault((atom.net, atom.length), set()).add((atom.lo, atom.hi))
    lengths = sorted({length for _, length in windows})
    kept: List[PrefixAtom] = []
    seen: Set[Tuple[int, int, int, int]] = set()
    for atom in atoms:
        key = (atom.net, atom.length, atom.lo, atom.hi)
        if key in seen:
            continue
        seen.add(key)
        if not _strictly_subsumed(atom, windows, lengths):
            kept.append(atom)
    return tuple(kept)


def _strictly_subsumed(
    atom: PrefixAtom,
    windows: Dict[Tuple[int, int], Set[Tuple[int, int]]],
    lengths: List[int],
) -> bool:
    lo, hi = atom.lo, atom.hi
    for length in lengths:
        if length > atom.length:
            break
        found = windows.get((atom.net & _MASKS[length], length))
        if not found:
            continue
        for w_lo, w_hi in found:
            if (
                w_lo <= lo
                and hi <= w_hi
                and (length != atom.length or w_lo != lo or w_hi != hi)
            ):
                return True
    return False


#: Per prefix length, the sorted and merged inclusive ranges of
#: prefix values (the top ``length`` bits of the network) a space holds.
_Encoding = Dict[int, List[Tuple[int, int]]]


def _encode(atoms: Sequence[PrefixAtom]) -> _Encoding:
    spans: Dict[int, List[Tuple[int, int]]] = {}
    for atom in atoms:
        for length in range(atom.lo, atom.hi + 1):
            start = atom.net >> (32 - length)
            spans.setdefault(length, []).append(
                (start, start + (1 << (length - atom.length)) - 1)
            )
    encoding: _Encoding = {}
    for length, ranges in spans.items():
        ranges.sort()
        merged = [ranges[0]]
        for start, end in ranges[1:]:
            last_start, last_end = merged[-1]
            if start <= last_end + 1:
                if end > last_end:
                    merged[-1] = (last_start, end)
            else:
                merged.append((start, end))
        encoding[length] = merged
    return encoding


def _ranges_cover(outer: List[Tuple[int, int]], inner: List[Tuple[int, int]]) -> bool:
    """True if the merged ranges ``outer`` contain every range of ``inner``.

    Both lists are sorted and merged, so each inner range must lie inside
    one outer range; a single forward sweep decides it.
    """
    j, n = 0, len(outer)
    for start, end in inner:
        while j < n and outer[j][1] < start:
            j += 1
        if j == n or outer[j][0] > start or outer[j][1] < end:
            return False
    return True


@dataclasses.dataclass(frozen=True)
class PrefixSpace:
    """A finite union of :class:`PrefixAtom` (not necessarily disjoint)."""

    atoms: Tuple[PrefixAtom, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", _absorb(self.atoms))

    @classmethod
    def empty(cls) -> "PrefixSpace":
        return cls(())

    @classmethod
    def universe(cls) -> "PrefixSpace":
        return cls((_UNIVERSE_ATOM,))

    @classmethod
    def of_atom(cls, atom: PrefixAtom) -> "PrefixSpace":
        return cls((atom,))

    @classmethod
    def exact(cls, prefix: Ipv4Prefix) -> "PrefixSpace":
        return cls((PrefixAtom.exact(prefix),))

    def is_empty(self) -> bool:
        return not self.atoms

    def is_universe(self) -> bool:
        return _UNIVERSE_ATOM in self.atoms

    def bounds(self) -> Optional[Tuple[int, int]]:
        """Inclusive address range covering every network in the space.

        A network in an atom lies inside the atom's covering prefix, so
        two spaces whose bounds do not overlap are certainly disjoint —
        the bounding-box pre-check the route-space subtraction uses to
        skip untouched regions.  Returns ``None`` when empty.
        """
        if not self.atoms:
            return None
        lo = min(atom.net for atom in self.atoms)
        hi = max(atom.net | (~atom.mask & 0xFFFFFFFF) for atom in self.atoms)
        return lo, hi

    def contains(self, network: Ipv4Prefix) -> bool:
        return any(atom.contains(network) for atom in self.atoms)

    def union(self, other: "PrefixSpace") -> "PrefixSpace":
        return PrefixSpace(self.atoms + other.atoms)

    def intersect(self, other: "PrefixSpace") -> "PrefixSpace":
        out: List[PrefixAtom] = []
        for a in self.atoms:
            for b in other.atoms:
                got = a.intersect(b)
                if got is not None:
                    out.append(got)
        return PrefixSpace(tuple(out))

    def complement(self) -> "PrefixSpace":
        result = PrefixSpace.universe()
        for atom in self.atoms:
            result = result.intersect(PrefixSpace(atom.complement_atoms()))
            if result.is_empty():
                break
        return result

    def subtract(self, other: "PrefixSpace") -> "PrefixSpace":
        return self.intersect(other.complement())

    def by_length(self) -> _Encoding:
        """The canonical per-length encoding (built on first use)."""
        encoding = self.__dict__.get("_by_length")
        if encoding is None:
            encoding = _encode(self.atoms)
            object.__setattr__(self, "_by_length", encoding)
        return encoding

    def is_subset_of(self, other: "PrefixSpace") -> bool:
        if self is other or not self.atoms:
            return True
        theirs = other.by_length()
        for length, ranges in self.by_length().items():
            outer = theirs.get(length)
            if outer is None or not _ranges_cover(outer, ranges):
                return False
        return True

    def witness(self) -> Optional[Ipv4Prefix]:
        if self.is_empty():
            return None
        return self.atoms[0].witness()

    def __str__(self) -> str:
        if self.is_empty():
            return "{}"
        return " u ".join(str(atom) for atom in self.atoms)


__all__ = ["PrefixAtom", "PrefixSpace"]
