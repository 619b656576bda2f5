import json
from fractions import Fraction

from hypothesis import given, settings

from pointideal import PointSet, QQ, bm_gb, staircase_gb
from pointideal.io import (
    basis_from_dict,
    basis_to_dict,
    canonical_dumps,
    pointset_from_dict,
    pointset_to_dict,
)

from strategies import pointsets


@settings(max_examples=40, deadline=None)
@given(pointsets())
def test_round_trips_to_identical_bytes(ps):
    text = canonical_dumps(pointset_to_dict(ps))
    assert canonical_dumps(pointset_to_dict(pointset_from_dict(json.loads(text)))) == text
    for gb in (staircase_gb(ps), bm_gb(ps)):
        text = canonical_dumps(basis_to_dict(gb))
        again = basis_from_dict(json.loads(text), ps.field)
        assert canonical_dumps(basis_to_dict(again)) == text


def test_a_coefficient_of_5000_digits_round_trips():
    """Past Python's 4,300-digit int/str limit: the basis of the points 0
    and a of QQ is X1^2 - a X1, with a's numerator of 5,000 digits."""
    a = Fraction(10**4999 + 7, 3)
    gb = staircase_gb(PointSet(QQ, 1, [(Fraction(0),), (a,)]))
    text = canonical_dumps(basis_to_dict(gb))
    assert '{"coeff":"-1' + "0" * 4998 + '7/3","exp":[1]}' in text
    again = basis_from_dict(json.loads(text), QQ)
    assert again == gb
    assert canonical_dumps(basis_to_dict(again)) == text
