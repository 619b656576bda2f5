import json

from hypothesis import given, settings

from pointideal import bm_gb, staircase_gb
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
