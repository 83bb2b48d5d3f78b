"""Differential tests for the batch interval kernels.

Every kernel in :mod:`repro.perf.kernels` claims *exact* equivalence
with the corresponding :class:`~repro.netaddr.intervals.IntervalSet`
operation.  This suite pins that claim over randomized-but-seeded
populations laced with the adversarial edges (empty sets, adjacent
intervals, single points, full-range sets).
"""

import random
import subprocess
import sys
import textwrap

import pytest

from repro.netaddr.intervals import EMPTY_SET, IntervalSet
from repro.perf import kernels

#: Universe the random populations draw from; small enough that random
#: sets collide, overlap, and contain each other often.
UNIVERSE_HI = 200

#: Hand-picked sets hitting the edges random draws may miss.
EDGE_SETS = [
    EMPTY_SET,
    IntervalSet.single(0),
    IntervalSet.single(UNIVERSE_HI),
    IntervalSet.closed(0, UNIVERSE_HI),  # full range
    IntervalSet.from_pairs([(0, 9), (10, 19)]),  # adjacent: coalesces
    IntervalSet.from_pairs([(0, 9), (11, 19)]),  # one-apart gap
    IntervalSet.from_pairs([(5, 5), (7, 7), (9, 9)]),  # point cloud
    IntervalSet.from_pairs([(0, 99), (150, UNIVERSE_HI)]),
]


def random_sets(seed, count=40):
    """Seeded random interval sets, edge cases prepended."""
    rng = random.Random(seed)
    out = list(EDGE_SETS)
    while len(out) < count + len(EDGE_SETS):
        pairs = []
        for _ in range(rng.randint(0, 4)):
            lo = rng.randint(0, UNIVERSE_HI)
            hi = min(UNIVERSE_HI, lo + rng.randint(0, 40))
            pairs.append((lo, hi))
        out.append(IntervalSet.from_pairs(pairs))
    return out


class TestEncoding:
    def test_decode_roundtrips(self):
        sets = random_sets(1)
        flat = kernels.encode(sets)
        assert len(flat) == len(sets)
        for i, value in enumerate(sets):
            assert flat.decode(i) == value
            assert flat.size(i) == len(value.intervals)

    def test_wide_endpoints_widen_the_typecode(self):
        narrow = kernels.encode([IntervalSet.closed(0, 0xFFFFFFFF)])
        wide = kernels.encode([IntervalSet.closed(0, 0x1_0000_0000)])
        assert narrow.los.typecode == "I"
        assert wide.los.typecode == "q"
        assert wide.decode(0) == IntervalSet.closed(0, 0x1_0000_0000)

    def test_empty_set_box_is_empty(self):
        flat = kernels.encode([EMPTY_SET])
        assert flat.box_lo[0] > flat.box_hi[0]


class TestMatrices:
    def test_disjoint_matrix_matches_intersect(self):
        a = random_sets(2)
        b = random_sets(3)
        flat_a, flat_b = kernels.encode(a), kernels.encode(b)
        matrix = kernels.disjoint_matrix(flat_a, flat_b)
        for i, va in enumerate(a):
            for j, vb in enumerate(b):
                expected = va.intersect(vb).is_empty()
                assert bool(matrix[i][j]) == expected, (i, j)

    def test_subset_matrix_matches_is_subset_of(self):
        a = random_sets(4)
        b = random_sets(5)
        flat_a, flat_b = kernels.encode(a), kernels.encode(b)
        matrix = kernels.subset_matrix(flat_a, flat_b)
        for i, va in enumerate(a):
            for j, vb in enumerate(b):
                assert bool(matrix[i][j]) == va.is_subset_of(vb), (i, j)

    def test_self_products(self):
        # The overlap hot path runs a set against itself.
        sets = random_sets(6)
        flat = kernels.encode(sets)
        disjoint = kernels.disjoint_matrix(flat, flat)
        subset = kernels.subset_matrix(flat, flat)
        for i, value in enumerate(sets):
            assert bool(disjoint[i][i]) == value.is_empty()
            assert subset[i][i] == 1  # every set contains itself


class TestElementwise:
    def test_intersect_many_matches(self):
        a = random_sets(7)
        b = list(reversed(random_sets(8, count=len(a) - len(EDGE_SETS))))
        flat_a, flat_b = kernels.encode(a), kernels.encode(b)
        result = kernels.intersect_many(flat_a, flat_b)
        assert result == [va.intersect(vb) for va, vb in zip(a, b)]

    def test_subtract_many_matches(self):
        a = random_sets(9)
        b = list(reversed(random_sets(10, count=len(a) - len(EDGE_SETS))))
        flat_a, flat_b = kernels.encode(a), kernels.encode(b)
        result = kernels.subtract_many(flat_a, flat_b)
        assert result == [va.subtract(vb) for va, vb in zip(a, b)]

    def test_length_mismatch_rejected(self):
        two = kernels.encode([EMPTY_SET, EMPTY_SET])
        one = kernels.encode([EMPTY_SET])
        with pytest.raises(ValueError, match="length mismatch"):
            kernels.intersect_many(two, one)
        with pytest.raises(ValueError, match="length mismatch"):
            kernels.subtract_many(two, one)

    def test_contains_vector_matches(self):
        sets = random_sets(11)
        flat = kernels.encode(sets)
        for value in (0, 5, 10, 100, UNIVERSE_HI):
            got = kernels.contains_vector(flat, value)
            assert got == [s.contains(value) for s in sets], value


class TestImportFootprint:
    def test_numpy_stays_out_of_the_process(self):
        # The kernels are pure Python: nothing on the CLI or overlap
        # path may pull numpy in (it costs ~12 MB of RSS per process).
        script = textwrap.dedent(
            """
            import sys

            import repro
            import repro.cli
            from repro.analysis.headerspace import (
                PacketRegion,
                regions_disjoint,
                regions_disjoint_matrix,
                regions_subsume_matrix,
            )
            from repro.netaddr.intervals import IntervalSet

            regions = [
                PacketRegion(
                    dst=IntervalSet.closed(k * 16, k * 16 + 31),
                    dst_ports=IntervalSet.from_pairs([(k, k), (k + 2, 80)]),
                )
                for k in range(16)
            ]
            disjoint = regions_disjoint_matrix(regions, regions)
            subsume = regions_subsume_matrix(regions, regions)
            assert sum(len(row) for row in disjoint) >= 128
            for i, a in enumerate(regions):
                for j, b in enumerate(regions):
                    assert bool(disjoint[i][j]) == regions_disjoint(a, b)
                    assert bool(subsume[i][j]) == b.subsumes(a)
            print("numpy" in sys.modules)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
