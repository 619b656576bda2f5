from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointideal import NotLowerSetError, Staircase, staircase_sum
from pointideal.core import _behind_zeros

from strategies import staircase_families, staircases


def brute_force_stack(members) -> set:
    """The defining predicate, evaluated candidate by candidate on raw
    cell sets: keep (j,) + c when j is below the number of members that
    contain c."""
    cells = set().union(*(d.cells for d in members))
    height = len(members) + 1
    return {
        (j,) + c
        for c in cells
        for j in range(height)
        if j < sum(1 for d in members if c in d.cells)
    }


def layers(d: Staircase) -> list:
    """The slices of d at first coordinate 0, 1, ..., each in the other
    n - 1 coordinates; d is their stack."""
    height = max((c[0] for c in d.cells), default=-1) + 1
    return [Staircase(d.n - 1, {c[1:] for c in d.cells if c[0] == i}) for i in range(height)]


def corners_by_fiber_counts(d: Staircase) -> set:
    """Independent corner computation: beta is a corner exactly when, for
    every axis, its coordinate equals the number of cells sharing its
    other coordinates."""
    n = d.n
    if not d.cells:
        return {(0,) * n}
    bound = max(max(c) for c in d.cells) + 2
    out = set()
    for beta in product(range(bound), repeat=n):
        ok = True
        for i in range(n):
            others = beta[:i] + beta[i + 1 :]
            fiber = sum(1 for c in d.cells if c[:i] + c[i + 1 :] == others)
            if beta[i] != fiber:
                ok = False
                break
        if ok:
            out.add(beta)
    return out


SEGMENT_1 = Staircase(1, {(0,)})
SEGMENT_2 = Staircase(1, {(0,), (1,)})
BLOCK_2X2 = Staircase(2, {(0, 0), (1, 0), (0, 1), (1, 1)})
FIVE_CELLS = Staircase(2, {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)})
COLUMN = Staircase(2, {(0, 0), (0, 1)})


class TestValidation:
    def test_block_is_valid(self):
        assert len(BLOCK_2X2) == 4

    def test_empty_is_valid(self):
        assert len(Staircase(3)) == 0

    def test_missing_origin(self):
        with pytest.raises(NotLowerSetError) as exc:
            Staircase(2, {(1, 0)})
        assert exc.value.cell == (1, 0)
        assert exc.value.axis == 0

    def test_negative_coordinate(self):
        with pytest.raises(ValueError):
            Staircase(2, {(-1, 0)})


class TestCorners:
    def test_block(self):
        assert BLOCK_2X2.corners() == {(2, 0), (0, 2)}

    def test_five_cells(self):
        assert FIVE_CELLS.corners() == {(3, 0), (2, 1), (0, 2)}

    def test_empty(self):
        assert Staircase(3).corners() == {(0, 0, 0)}

    @given(staircases())
    def test_matches_fiber_count_characterization(self, d):
        assert set(d.corners()) == corners_by_fiber_counts(d)

    @given(staircases())
    def test_antichain(self, d):
        corners = list(d.corners())
        for a in corners:
            for b in corners:
                if a != b:
                    assert not all(x <= y for x, y in zip(a, b))


class TestProjection:
    def test_fiber_counts(self):
        assert BLOCK_2X2.fiber_count((0,)) == 2
        assert BLOCK_2X2.fiber_count((5,)) == 0

    @given(staircases(max_n=3))
    def test_fiber_counts_partition(self, d):
        if d.n == 1:
            assert d.fiber_count(()) == len(d)
        else:
            total = sum(d.fiber_count(col) for col in {c[1:] for c in d.cells})
            assert total == len(d)


class TestAddition:
    # staircase_sum stacks staircases in n - 1 variables along a new
    # first axis
    def test_two_columns(self):
        assert staircase_sum([SEGMENT_2, SEGMENT_2], 2) == BLOCK_2X2

    def test_left_fold_of_three_blocks(self):
        assert staircase_sum([SEGMENT_2, SEGMENT_1, SEGMENT_2], 2) == FIVE_CELLS

    def test_neutral_element(self):
        assert staircase_sum([SEGMENT_2, Staircase(1), SEGMENT_2], 2) == BLOCK_2X2

    def test_empty_family(self):
        assert staircase_sum([], 2) == Staircase(2)

    def test_singleton_family(self):
        assert staircase_sum([SEGMENT_2], 2) == COLUMN

    def test_two_step_profiles(self):
        # two staircases with two plateaus each; stacking the layers of
        # both adds their row widths
        d1 = Staircase(
            2,
            {(i, j) for i in range(3) for j in range(13)}
            | {(i, j) for i in range(3, 8) for j in range(3)},
        )
        d2 = Staircase(
            2,
            {(i, j) for i in range(5) for j in range(10)}
            | {(i, j) for i in range(5, 8) for j in range(6)},
        )
        assert staircase_sum(layers(d1), 2) == d1
        members = layers(d1) + layers(d2)
        total = staircase_sum(members, 2)
        assert total.cells == brute_force_stack(members)
        widths = {j: total.fiber_count((j,)) for j in range(13)}
        expected = {j: 16 for j in range(3)}
        expected.update({j: 11 for j in range(3, 6)})
        expected.update({j: 8 for j in range(6, 10)})
        expected.update({j: 3 for j in range(10, 13)})
        assert widths == expected

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            staircase_sum([Staircase(1), Staircase(2)], 2)
        with pytest.raises(ValueError):
            staircase_sum([Staircase(2)], 2)
        with pytest.raises(ValueError):
            staircase_sum([], 1)

    @settings(max_examples=150)
    @given(staircase_families())
    def test_matches_brute_force(self, family):
        n, members = family
        assert staircase_sum(members, n + 1).cells == brute_force_stack(members)

    @given(staircase_families(), st.randoms(use_true_random=False))
    def test_commutative(self, family, rng):
        n, members = family
        shuffled = list(members)
        rng.shuffle(shuffled)
        assert staircase_sum(shuffled, n + 1) == staircase_sum(members, n + 1)

    @given(staircase_families())
    def test_cardinality_additive(self, family):
        n, members = family
        assert len(staircase_sum(members, n + 1)) == sum(map(len, members))

    @given(staircase_families())
    def test_projection_identity(self, family):
        n, members = family
        left = Staircase(n, {c[1:] for c in staircase_sum(members, n + 1).cells})
        right = Staircase(n, set().union(*(d.cells for d in members)))
        assert left == right

    @given(staircase_families())
    def test_closure(self, family):
        n, members = family
        total = staircase_sum(members, n + 1)
        # the constructor re-validates the lower-set property
        assert Staircase(n + 1, total.cells) == total


@given(staircase_families())
def test_unvalidated_results_equal_validated_staircases(family):
    """`staircase_sum` and `core._behind_zeros` build their results
    without the lower-set check; the constructor accepts the same cells
    and gives an equal staircase."""
    n, members = family
    results = [staircase_sum(members, n + 1)]
    results += [_behind_zeros(d, 1) for d in members]
    for d in results:
        validated = Staircase(n + 1, d.cells)
        assert d == validated and hash(d) == hash(validated)
        assert d.corners() == validated.corners()


class TestRender:
    def test_block(self):
        assert BLOCK_2X2.render() == "*\no o\no o *"

    def test_five_cells(self):
        assert FIVE_CELLS.render() == "*\no o *\no o o *"

    def test_empty(self):
        assert Staircase(2).render() == "*"

    def test_needs_two_variables(self):
        with pytest.raises(ValueError):
            Staircase(3).render()
