import itertools
import random

import pytest

import boxlogic as bl
from boxlogic import AtomId, BoxWorldSpec, LocalizedSpec, Side

import oracles
from conftest import CHSH


def test_gamma_sizes_chsh():
    g = bl.build_gamma(CHSH)
    assert (g.gamma1_size, g.gamma2_size, g.gamma_size) == (4, 4, 16)


def test_gamma_sizes_three_by_two():
    g = bl.build_gamma(BoxWorldSpec.from_sizes([3], [2]))
    assert g.gamma_size == 6


def test_gamma_sizes_mixed():
    g = bl.build_gamma(BoxWorldSpec.from_sizes([2, 3], [2, 2]))
    assert g.gamma_size == 6 * 4 == 24


@pytest.mark.parametrize(
    "left,right",
    [([2, 2], [2, 2]), ([3], [2]), ([2, 3], [2, 2]), ([2, 2, 2], [3])],
)
def test_index_bijection_round_trip(left, right):
    g = bl.build_gamma(BoxWorldSpec.from_sizes(left, right))
    seen = set()
    for i in range(g.gamma_size):
        xs, ys = g.index_to_point(i)
        assert g.point_to_index(xs, ys) == i
        seen.add((xs, ys))
    assert len(seen) == g.gamma_size


def test_atom_popcount_chsh():
    g = bl.build_gamma(CHSH)
    for aid in bl.all_atom_ids(CHSH):
        assert bl.make_atom(g, aid).bit_count() == 16 // (2 * 2)


def test_atom_popcount_single_input_pair():
    spec = BoxWorldSpec.from_sizes([3], [2])
    g = bl.build_gamma(spec)
    assert bl.make_atom(g, AtomId(0, 1, 0, 1)).bit_count() == 1


def test_same_input_different_outcome_atoms_disjoint():
    g = bl.build_gamma(CHSH)
    first = bl.make_atom(g, AtomId(0, 0, 0, 0))
    second = bl.make_atom(g, AtomId(0, 1, 0, 0))
    assert first & second == 0


def test_atom_membership_matches_pointwise_definition():
    spec = BoxWorldSpec.from_sizes([2, 3], [2, 2])
    g = bl.build_gamma(spec)
    for aid in bl.all_atom_ids(spec):
        bits = bl.make_atom(g, aid)
        for i in range(g.gamma_size):
            xs, ys = g.index_to_point(i)
            member = xs[aid.a] == aid.alpha and ys[aid.b] == aid.beta
            assert bool(bits & (1 << i)) == member


def test_disjointness_criterion_exhaustive():
    # two elementary questions are disjoint iff they fix the same input
    # of either box to different outcomes
    spec = BoxWorldSpec.from_sizes([2, 2], [2, 3])
    g = bl.build_gamma(spec)
    ids = bl.all_atom_ids(spec)
    for x, y in itertools.product(ids, repeat=2):
        expected = (x.a == y.a and x.alpha != y.alpha) or (
            x.b == y.b and x.beta != y.beta
        )
        actual = bl.make_atom(g, x) & bl.make_atom(g, y) == 0
        assert actual == expected, (x, y)


def test_fixed_input_pair_atoms_partition_space():
    spec = BoxWorldSpec.from_sizes([2, 3], [2, 2])
    g = bl.build_gamma(spec)
    for a, la in enumerate(spec.left_sizes):
        for b, rb in enumerate(spec.right_sizes):
            union = 0
            total = 0
            for alpha in range(la):
                for beta in range(rb):
                    bits = bl.make_atom(g, AtomId(a, alpha, b, beta))
                    assert union & bits == 0
                    union |= bits
                    total += bits.bit_count()
            assert union == g.full_mask
            assert total == g.gamma_size


def test_atoms_minimal_and_incomparable():
    g = bl.build_gamma(CHSH)
    atoms = [bl.make_atom(g, aid) for aid in bl.all_atom_ids(CHSH)]
    for p, q in itertools.combinations(atoms, 2):
        if p & q:
            assert p & q != p and p & q != q


def test_localized_full_outcome_set_is_everything():
    g = bl.build_gamma(CHSH)
    loc = LocalizedSpec(Side.LEFT, 0, (0, 1))
    assert bl.make_localized(g, loc) == g.full_mask


def test_localized_popcount():
    g = bl.build_gamma(CHSH)
    loc = LocalizedSpec(Side.LEFT, 0, (0,))
    assert bl.make_localized(g, loc).bit_count() == 8


def test_localized_splits_over_other_box_outcomes():
    g = bl.build_gamma(CHSH)
    loc = bl.make_localized(g, LocalizedSpec(Side.LEFT, 0, (0,)))
    a0 = bl.make_atom(g, AtomId(0, 0, 0, 0))
    a1 = bl.make_atom(g, AtomId(0, 0, 0, 1))
    assert a0 & a1 == 0
    assert loc == a0 | a1


def test_localized_popcount_formula_general():
    spec = BoxWorldSpec.from_sizes([3, 2], [2, 2])
    g = bl.build_gamma(spec)
    loc = bl.make_localized(g, LocalizedSpec(Side.LEFT, 0, (0, 2)))
    assert loc.bit_count() == 2 * g.gamma_size // 3


def test_complement_of_empty_is_everything():
    g = bl.build_gamma(CHSH)
    assert bl.complement_bits(g, 0) == g.full_mask


def test_complement_is_involution():
    g = bl.build_gamma(CHSH)
    for bits in (0, 0xF0F0, 0x1234, g.full_mask):
        assert bl.complement_bits(g, bl.complement_bits(g, bits)) == bits


def test_complement_of_atom_popcount():
    g = bl.build_gamma(CHSH)
    atom = bl.make_atom(g, AtomId(0, 0, 0, 0))
    assert bl.complement_bits(g, atom).bit_count() == 12


def test_complement_rejects_stray_bits():
    g = bl.build_gamma(CHSH)
    with pytest.raises(bl.ScenarioError):
        bl.complement_bits(g, 1 << g.gamma_size)


def test_single_outcome_input_rejected():
    with pytest.raises(bl.ScenarioError):
        BoxWorldSpec(((("0",),)), ((("0", "1"),)))


def test_duplicate_labels_rejected():
    with pytest.raises(bl.ScenarioError):
        BoxWorldSpec((("0", "0"),), (("0", "1"),))


def test_empty_side_rejected():
    with pytest.raises(bl.ScenarioError):
        BoxWorldSpec((), (("0", "1"),))


def test_gamma_cap():
    spec = BoxWorldSpec.from_sizes([2] * 11, [2] * 11)
    with pytest.raises(bl.GammaCapExceeded):
        bl.build_gamma(spec, gamma_cap=2**20)


def test_out_of_range_atom_rejected():
    g = bl.build_gamma(CHSH)
    with pytest.raises(bl.ScenarioError):
        bl.make_atom(g, AtomId(0, 2, 0, 0))
    with pytest.raises(bl.ScenarioError):
        bl.make_atom(g, AtomId(5, 0, 0, 0))


@pytest.mark.parametrize("left,right", [([3], [2]), ([2, 3], [2, 2]), ([3, 2], [2, 3, 2]), ([2, 3, 4], [3])], ids=str)
def test_outcome_masks_match_the_points(left, right):
    g = bl.build_gamma(BoxWorldSpec.from_sizes(left, right))
    for side, sizes in ((Side.LEFT, left), (Side.RIGHT, right)):
        for k, size in enumerate(sizes):
            for o in range(size):
                assert g.outcome_mask(side, k, o) == oracles.naive_outcome_mask(g, side, k, o)
        for k, o in ((len(sizes), 0), (-1, 0), (0, sizes[0]), (0, -1)):
            with pytest.raises(bl.ScenarioError, match="out of range"):
                g.outcome_mask(side, k, o)


def test_empty_localized_outcomes_rejected():
    with pytest.raises(bl.ScenarioError):
        LocalizedSpec(Side.LEFT, 0, ())


def test_scenario_dict_round_trip():
    spec = BoxWorldSpec.from_sizes([2, 3], [2, 2])
    assert BoxWorldSpec.from_dict(spec.to_dict()) == spec


def test_digit_mask_matches_the_plain_loop():
    from boxlogic.scenario import _digit_mask

    rng = random.Random(18)
    cases = [(0, 1, 2, 1), (1, 1, 1, 0), (7, 2, 3, 2), (2**16, 1, 2, 1), (2**16, 3, 4, 3)]
    # the widths of real sample spaces are multiples of the period; the others keep
    # the loop's last, partial period too
    cases += [(2**16, 2**k, 2, v) for k in (0, 5, 15) for v in (0, 1)]
    for _ in range(300):
        stride, size = rng.randint(1, 40), rng.randint(1, 6)
        width = rng.choice([stride * size * rng.randint(0, 50), rng.randint(0, 3000)])
        cases.append((width, stride, size, rng.randrange(size)))
    for case in cases:
        assert _digit_mask(*case) == oracles.naive_digit_mask(*case), case
