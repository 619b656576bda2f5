from itertools import product

import pytest
from hypothesis import given, settings

from pointideal import NotLowerSetError, Staircase, staircase_sum

from strategies import staircase_families, staircase_pairs, staircases


def brute_force_add(d1: Staircase, d2: Staircase) -> set:
    """The defining predicate, evaluated candidate by candidate on raw
    cell sets: keep d when its column occurs in either summand and its
    first coordinate is below the summed fiber sizes."""
    columns = {c[1:] for c in d1.cells} | {c[1:] for c in d2.cells}
    height = len(d1.cells) + len(d2.cells) + 1
    out = set()
    for col in columns:
        f1 = sum(1 for c in d1.cells if c[1:] == col)
        f2 = sum(1 for c in d2.cells if c[1:] == col)
        out |= {(j,) + col for j in range(height) if j < f1 + f2}
    return out


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


def plus(d1: Staircase, d2: Staircase) -> Staircase:
    return staircase_sum((d1, d2), d1.n)


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
    # column_counts is the drop-first projection with the size of each
    # column's fiber, which staircase_sum stacks
    def test_drop_first(self):
        assert BLOCK_2X2.column_counts() == {(0,): 2, (1,): 2}

    def test_empty(self):
        assert Staircase(2).column_counts() == {}

    def test_row_collapses(self):
        row = Staircase(2, {(0, 0), (1, 0), (2, 0)})
        assert row.column_counts() == {(0,): 3}

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
    def test_two_columns(self):
        assert plus(COLUMN, COLUMN) == BLOCK_2X2

    def test_left_fold_of_three_blocks(self):
        single = Staircase(2, {(0, 0)})
        assert plus(plus(COLUMN, single), COLUMN) == FIVE_CELLS

    def test_neutral_element(self):
        assert plus(BLOCK_2X2, Staircase(2)) == BLOCK_2X2

    def test_empty_family(self):
        assert staircase_sum([], 2) == Staircase(2)

    def test_singleton_family(self):
        assert staircase_sum([FIVE_CELLS], 2) == FIVE_CELLS

    def test_two_step_profiles(self):
        # two staircases with two plateaus each; the sum's row widths are
        # the sums of the row widths
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
        total = plus(d1, d2)
        assert total.cells == brute_force_add(d1, d2)
        widths = {j: total.fiber_count((j,)) for j in range(13)}
        expected = {j: 16 for j in range(3)}
        expected.update({j: 11 for j in range(3, 6)})
        expected.update({j: 8 for j in range(6, 10)})
        expected.update({j: 3 for j in range(10, 13)})
        assert widths == expected

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            staircase_sum([Staircase(2), Staircase(3)], 2)

    @settings(max_examples=150)
    @given(staircase_pairs())
    def test_matches_brute_force(self, pair):
        d1, d2 = pair
        assert plus(d1, d2).cells == brute_force_add(d1, d2)

    @given(staircase_pairs())
    def test_commutative(self, pair):
        d1, d2 = pair
        assert plus(d1, d2) == plus(d2, d1)

    @settings(max_examples=60)
    @given(staircase_pairs(), staircases(max_n=3))
    def test_associative(self, pair, d3):
        d1, d2 = pair
        if d3.n != d1.n:
            return
        assert plus(plus(d1, d2), d3) == plus(d1, plus(d2, d3))

    @given(staircase_pairs())
    def test_cardinality_additive(self, pair):
        d1, d2 = pair
        assert len(plus(d1, d2)) == len(d1) + len(d2)

    @given(staircase_pairs())
    def test_projection_identity(self, pair):
        d1, d2 = pair
        if d1.n == 1:
            return
        left = Staircase(d1.n - 1, {c[1:] for c in plus(d1, d2).cells})
        right = Staircase(
            d1.n - 1, {c[1:] for c in d1.cells} | {c[1:] for c in d2.cells}
        )
        assert left == right

    @given(staircase_pairs())
    def test_closure(self, pair):
        d1, d2 = pair
        # the constructor re-validates the lower-set property
        assert Staircase(d1.n, plus(d1, d2).cells) == plus(d1, d2)


class TestEmbedding:
    def test_prepend_zero(self):
        assert COLUMN.prepend_zero() == Staircase(3, {(0, 0, 0), (0, 0, 1)})


@given(staircase_families())
def test_unvalidated_results_equal_validated_staircases(family):
    """`prepend_zero` and `staircase_sum` build their results without
    the lower-set check; the constructor accepts the same cells and
    gives an equal staircase."""
    n, members = family
    results = [(n, staircase_sum(members, n))]
    results += [(n + 1, d.prepend_zero()) for d in members]
    for dim, d in results:
        validated = Staircase(dim, d.cells)
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
