"""Property tests (hypothesis) for the packed int64 entity-id codec.

The packed layer replaces every ``{global id: (owner, local)}`` dict with
``rank << SHIFT | local_index`` arithmetic, so its correctness claims are
exactly the dict semantics: round-trip, owner/local extraction against a
dict oracle, and SHIFT sizing at power-of-two kernel-count boundaries.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import MeshError
from repro.mesh import (
    PackedIDSpace,
    build_entity_packing,
    build_partition,
    structured_tri_mesh,
)
from repro.mesh.schedule import local_rows

_spaces = st.builds(
    PackedIDSpace,
    nranks=st.integers(1, 5000),
    shift=st.integers(1, 40),
)


@st.composite
def _space_and_fields(draw):
    space = draw(_spaces)
    n = draw(st.integers(1, 64))
    ranks = draw(st.lists(st.integers(0, space.nranks - 1),
                          min_size=n, max_size=n))
    locs = draw(st.lists(st.integers(0, space.mask),
                         min_size=n, max_size=n))
    return space, np.array(ranks, np.int64), np.array(locs, np.int64)


class TestCodec:
    @settings(max_examples=200, deadline=None)
    @given(_space_and_fields())
    def test_pack_unpack_round_trip(self, case):
        space, ranks, locs = case
        pids = space.pack(ranks, locs)
        assert pids.dtype == np.int64
        assert (pids >= 0).all()
        back_r, back_l = space.unpack(pids)
        np.testing.assert_array_equal(back_r, ranks)
        np.testing.assert_array_equal(back_l, locs)
        # owner_of/local_of are the same two halves
        np.testing.assert_array_equal(space.owner_of(pids), ranks)
        np.testing.assert_array_equal(space.local_of(pids), locs)

    @settings(max_examples=100, deadline=None)
    @given(_space_and_fields())
    def test_pack_is_injective(self, case):
        space, ranks, locs = case
        pids = space.pack(ranks, locs)
        pairs = {(int(r), int(l)) for r, l in zip(ranks, locs)}
        assert len(np.unique(pids)) == len(pairs)

    @settings(max_examples=100, deadline=None)
    @given(_space_and_fields())
    def test_owner_ordering_dominates(self, case):
        """Sorting packed ids sorts by (owner, local) lexicographically."""
        space, ranks, locs = case
        pids = np.sort(space.pack(ranks, locs))
        owners, locals_ = space.unpack(pids)
        keys = list(zip(owners.tolist(), locals_.tolist()))
        assert keys == sorted(keys)


class TestShiftSizing:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 16])
    def test_power_of_two_boundaries(self, k):
        """counts 2**k-1 and 2**k sit on opposite sides of a width step."""
        below = PackedIDSpace.from_kernel_counts(2, [2 ** k - 1])
        at = PackedIDSpace.from_kernel_counts(2, [2 ** k])
        assert below.shift == max(k, 1)
        assert at.shift == k + 1
        # strict inequality: the largest kernel always fits with room
        assert (1 << below.shift) > 2 ** k - 1
        assert (1 << at.shift) > 2 ** k

    def test_degenerate_counts(self):
        assert PackedIDSpace.from_kernel_counts(1, []).shift == 1
        assert PackedIDSpace.from_kernel_counts(1, [0]).shift == 1
        assert PackedIDSpace.from_kernel_counts(3, [1, 0, 1]).shift == 1
        assert PackedIDSpace.from_kernel_counts(2, [2]).shift == 2

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 10 ** 6), max_size=8))
    def test_shift_is_minimal_and_sufficient(self, counts):
        space = PackedIDSpace.from_kernel_counts(4, counts)
        top = max(counts, default=0)
        assert (1 << space.shift) > top
        assert space.shift == 1 or (1 << (space.shift - 1)) <= top

    def test_validation(self):
        with pytest.raises(MeshError, match="SHIFT"):
            PackedIDSpace(nranks=2, shift=0)
        with pytest.raises(MeshError, match="at least one rank"):
            PackedIDSpace(nranks=0, shift=4)
        with pytest.raises(MeshError, match="overflow"):
            PackedIDSpace(nranks=2 ** 30, shift=40)


class TestEntityPackingOracle:
    """Packed tables versus the dict oracle on a real partition."""

    @pytest.fixture(scope="class", params=["overlap-elements-2d",
                                           "shared-nodes-2d"])
    def part(self, request):
        mesh = structured_tri_mesh(7, 7)
        return build_partition(mesh, 4, request.param)

    @pytest.fixture(scope="class")
    def oracle(self, part):
        """The pre-packed-era dict: global id -> (owner, owner local)."""
        table = {}
        for sub in part.subs:
            kern = sub.kernel_count["node"]
            for local, g in enumerate(sub.l2g["node"][:kern]):
                table[int(g)] = (sub.rank, local)
        return table

    def test_owner_and_local_match_dict_oracle(self, part, oracle):
        gids = np.arange(part.mesh.n_nodes)
        packing = part.packing("node")
        owners, locals_ = packing.space.unpack(packing.pack(gids))
        for g in gids:
            assert (int(owners[g]), int(locals_[g])) == oracle[int(g)]

    def test_owner_table_matches_partition_owners(self, part):
        gids = np.arange(part.mesh.n_nodes)
        packing = part.packing("node")
        np.testing.assert_array_equal(
            packing.space.owner_of(packing.pack(gids)), part.owners["node"])

    def test_origin_round_trip(self, part):
        packing = part.packing("node")
        gids = np.arange(part.mesh.n_nodes)
        np.testing.assert_array_equal(
            packing.origin_of(packing.pack(gids)), gids)

    def test_unknown_pid_rejected(self, part):
        packing = part.packing("node")
        # local slot == mask is always free: SHIFT keeps every kernel
        # count strictly below 2**shift
        space = packing.space
        bogus = space.pack([space.nranks - 1], [space.mask])
        with pytest.raises(MeshError, match="does not name"):
            packing.origin_of(bogus)

    def test_packed_ids_align_with_l2g(self, part):
        packing = part.packing("node")
        holder, row, owner, owner_row = local_rows(part.subs, "node",
                                                   packing)
        for sub in part.subs:
            mine = holder == sub.rank
            np.testing.assert_array_equal(row[mine],
                                          np.arange(len(sub.l2g["node"])))
            pids = packing.space.pack(owner[mine], owner_row[mine])
            np.testing.assert_array_equal(pids, packing.pack(sub.l2g["node"]))
            kern = sub.kernel_count["node"]
            # kernel prefix: owned here, local slot = position
            np.testing.assert_array_equal(
                packing.space.owner_of(pids[:kern]), sub.rank)
            np.testing.assert_array_equal(
                packing.space.local_of(pids[:kern]), np.arange(kern))

    def test_non_partitioning_kernels_rejected(self):
        with pytest.raises(MeshError, match="do not partition"):
            build_entity_packing(
                "node", 2,
                [np.array([0, 1]), np.array([1, 2])], 4)
