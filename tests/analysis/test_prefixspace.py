"""Unit and property tests for the prefix-space algebra."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.prefixspace import PrefixAtom, PrefixSpace, _absorb
from repro.netaddr import Ipv4Address, Ipv4Prefix


def atom(prefix, lo=None, hi=None):
    p = Ipv4Prefix.parse(prefix)
    return PrefixAtom(p, lo if lo is not None else p.length, hi if hi is not None else 32)


@st.composite
def prefixes(draw):
    length = draw(st.integers(0, 8))
    # Keep networks inside a small universe so brute-force checks are cheap.
    bits = draw(st.integers(0, (1 << length) - 1)) if length else 0
    value = bits << (32 - length) if length else 0
    return Ipv4Prefix(Ipv4Address(value), length)


@st.composite
def atoms(draw):
    covering = draw(prefixes())
    lo = draw(st.integers(covering.length, 8))
    hi = draw(st.integers(lo, 8))
    return PrefixAtom(covering, lo, hi)


def all_test_networks():
    """Every prefix of length <= 8 inside the top 256 /8 blocks... kept tiny."""
    out = []
    for length in range(0, 9):
        step = 1 << (32 - length) if length else 1 << 32
        count = 1 << length
        for i in range(count):
            out.append(Ipv4Prefix(Ipv4Address(i * (1 << (32 - length))), length))
    return out


TEST_NETWORKS = all_test_networks()


class TestPrefixAtom:
    def test_contains_respects_length_window(self):
        a = atom("10.0.0.0/8", 8, 24)
        assert a.contains(Ipv4Prefix.parse("10.0.0.0/8"))
        assert a.contains(Ipv4Prefix.parse("10.1.0.0/16"))
        assert not a.contains(Ipv4Prefix.parse("10.1.2.128/25"))
        assert not a.contains(Ipv4Prefix.parse("11.0.0.0/8"))
        assert not a.contains(Ipv4Prefix.parse("0.0.0.0/0"))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            atom("10.0.0.0/8", 4, 24)
        with pytest.raises(ValueError):
            atom("10.0.0.0/8", 24, 16)

    def test_intersect_nested(self):
        outer = atom("10.0.0.0/8", 8, 24)
        inner = atom("10.1.0.0/16", 16, 32)
        got = outer.intersect(inner)
        assert got == PrefixAtom(Ipv4Prefix.parse("10.1.0.0/16"), 16, 24)

    def test_intersect_disjoint(self):
        assert atom("10.0.0.0/8").intersect(atom("11.0.0.0/8")) is None

    def test_intersect_window_miss(self):
        a = atom("10.0.0.0/8", 8, 15)
        b = atom("10.1.0.0/16", 16, 32)
        assert a.intersect(b) is None

    def test_witness_in_atom(self):
        a = atom("10.0.0.0/8", 12, 24)
        assert a.contains(a.witness())

    def test_universe_contains_everything(self):
        for network in ["0.0.0.0/0", "10.0.0.0/8", "255.255.255.255/32"]:
            assert PrefixAtom.universe().contains(Ipv4Prefix.parse(network))

    @given(atoms())
    @settings(max_examples=50)
    def test_complement_is_exact(self, a):
        complement = a.complement_atoms()
        for network in TEST_NETWORKS:
            in_atom = a.contains(network)
            in_complement = any(c.contains(network) for c in complement)
            assert in_atom != in_complement, (a, network)


class TestPrefixSpace:
    def test_empty_and_universe(self):
        assert PrefixSpace.empty().is_empty()
        assert PrefixSpace.universe().is_universe()
        assert PrefixSpace.universe().complement().is_empty()

    def test_absorption(self):
        space = PrefixSpace((atom("10.0.0.0/8", 8, 32), atom("10.1.0.0/16", 16, 24)))
        assert len(space.atoms) == 1

    def test_subtract(self):
        space = PrefixSpace.of_atom(atom("10.0.0.0/8", 8, 32))
        space = space.subtract(PrefixSpace.of_atom(atom("10.1.0.0/16", 16, 32)))
        assert space.contains(Ipv4Prefix.parse("10.0.0.0/8"))
        assert space.contains(Ipv4Prefix.parse("10.2.0.0/16"))
        assert not space.contains(Ipv4Prefix.parse("10.1.0.0/16"))
        assert not space.contains(Ipv4Prefix.parse("10.1.2.0/24"))

    def test_subset(self):
        inner = PrefixSpace.of_atom(atom("10.1.0.0/16", 16, 24))
        outer = PrefixSpace.of_atom(atom("10.0.0.0/8", 8, 32))
        assert inner.is_subset_of(outer)
        assert not outer.is_subset_of(inner)

    def test_witness(self):
        assert PrefixSpace.empty().witness() is None
        space = PrefixSpace.of_atom(atom("10.0.0.0/8", 12, 24))
        assert space.contains(space.witness())

    @given(atoms(), atoms())
    @settings(max_examples=50)
    def test_intersection_semantics(self, a, b):
        space = PrefixSpace.of_atom(a).intersect(PrefixSpace.of_atom(b))
        for network in TEST_NETWORKS:
            expected = a.contains(network) and b.contains(network)
            assert space.contains(network) == expected

    @given(atoms(), atoms())
    @settings(max_examples=50)
    def test_union_semantics(self, a, b):
        space = PrefixSpace.of_atom(a).union(PrefixSpace.of_atom(b))
        for network in TEST_NETWORKS:
            expected = a.contains(network) or b.contains(network)
            assert space.contains(network) == expected

    @given(atoms(), atoms())
    @settings(max_examples=30)
    def test_subtraction_semantics(self, a, b):
        space = PrefixSpace.of_atom(a).subtract(PrefixSpace.of_atom(b))
        for network in TEST_NETWORKS:
            expected = a.contains(network) and not b.contains(network)
            assert space.contains(network) == expected


def space_covers(outer, inner):
    """Brute-force containment over the small test universe."""
    return all(outer.contains(n) for n in TEST_NETWORKS if inner.contains(n))


class TestCanonicalContainment:
    """``is_subset_of`` answers from the per-length encoding."""

    def test_adjacent_atoms_cover_their_parent(self):
        # Neither atom subsumes the parent; only their union does.
        halves = PrefixSpace((atom("0.0.0.0/2", 2, 2), atom("64.0.0.0/2", 2, 2)))
        parent = PrefixSpace.of_atom(atom("0.0.0.0/1", 2, 2))
        assert parent.is_subset_of(halves)
        assert halves.is_subset_of(parent)
        assert not PrefixSpace.of_atom(atom("0.0.0.0/1", 1, 2)).is_subset_of(halves)
        # One half covers the start of the parent's range, not its end.
        assert not parent.is_subset_of(PrefixSpace.of_atom(atom("0.0.0.0/2", 2, 2)))

    def test_empty_and_universe(self):
        some = PrefixSpace.of_atom(atom("10.0.0.0/8", 8, 24))
        assert PrefixSpace.empty().is_subset_of(some)
        assert not some.is_subset_of(PrefixSpace.empty())
        assert some.is_subset_of(PrefixSpace.universe())
        assert not PrefixSpace.universe().is_subset_of(some)
        assert PrefixSpace.universe().is_subset_of(
            some.union(some.complement())
        )

    @given(
        st.lists(atoms(), max_size=4),
        st.lists(atoms(), max_size=4),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_subset_matches_enumeration(self, left, right, superset):
        a = PrefixSpace(tuple(left))
        # Half the draws make ``b`` a superset of ``a`` so that both
        # answers are exercised.
        b = PrefixSpace(tuple(right) + (tuple(left) if superset else ()))
        for x, y in ((a, b), (b, a)):
            expected = space_covers(y, x)
            assert x.is_subset_of(y) == expected, (x, y)
            assert x.subtract(y).is_empty() == expected, (x, y)


def reference_absorb(atoms):
    """The original quadratic ``_absorb``: the differential reference."""

    def subsumes(outer, inner):
        return (
            outer.covering.contains_prefix(inner.covering)
            and outer.lo <= inner.lo
            and inner.hi <= outer.hi
        )

    kept = []
    for a in atoms:
        if any(subsumes(other, a) for other in kept):
            continue
        kept = [other for other in kept if not subsumes(a, other)]
        kept.append(a)
    return tuple(kept)


@st.composite
def atom_lists(draw):
    """Atom lists rich in duplicates and nested coverings, in any order."""
    out = list(draw(st.lists(atoms(), min_size=1, max_size=5)))
    for _ in range(draw(st.integers(0, 6))):
        base = out[draw(st.integers(0, len(out) - 1))]
        kind = draw(st.sampled_from(["duplicate", "inner", "outer"]))
        if kind == "duplicate":
            made = PrefixAtom(base.covering, base.lo, base.hi)
        elif kind == "inner" and base.covering.length < 8:
            covering = base.covering.child(draw(st.integers(0, 1)))
            lo = draw(st.integers(max(base.lo, covering.length), 8))
            made = PrefixAtom(covering, lo, draw(st.integers(lo, 8)))
        else:
            # A covering atom, inserted at or after the atom it subsumes.
            length = draw(st.integers(0, base.covering.length))
            made = PrefixAtom(
                base.covering.truncate(length),
                draw(st.integers(length, base.lo)),
                draw(st.integers(base.hi, 32)),
            )
        out.insert(draw(st.integers(0, len(out))), made)
    return out


class TestAbsorb:
    @given(atom_lists())
    @settings(max_examples=200, deadline=None)
    def test_matches_quadratic_reference(self, atom_list):
        got = _absorb(atom_list)
        want = reference_absorb(atom_list)
        assert got == want
        # The first copy of a duplicate is the one kept.
        assert all(g is w for g, w in zip(got, want))

    def test_later_atom_subsumes_earlier(self):
        atom_list = [
            atom("192.168.0.0/16", 24, 24),
            atom("10.1.0.0/16", 16, 24),
            atom("10.0.0.0/8", 8, 32),
            atom("10.1.0.0/16", 16, 24),
        ]
        got = _absorb(atom_list)
        assert got == reference_absorb(atom_list)
        assert [str(a) for a in got] == ["192.168.0.0/16:24-24", "10.0.0.0/8:8-32"]
        assert str(PrefixSpace(tuple(atom_list)).witness()) == "192.168.0.0/24"
        assert str(PrefixSpace(tuple(atom_list[1:])).witness()) == "10.0.0.0/8"
