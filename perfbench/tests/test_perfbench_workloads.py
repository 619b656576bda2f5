from fractions import Fraction

import pytest

from perfbench.workloads import WORKLOADS, InstanceStream


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_repeat_for_a_fixed_seed(name):
    workload = WORKLOADS[name]
    first = InstanceStream(workload, 7, 3)
    second = InstanceStream(workload, 7, 1)
    assert [first[i] for i in range(4)] == [second[i] for i in range(4)]
    assert first[0] != InstanceStream(workload, 8, 1)[0]
    assert all(len(first[i]) == workload.size for i in range(4))


def test_rational3_has_non_integer_coordinates():
    ps = InstanceStream(WORKLOADS["rational3"], 1, 1)[0]
    assert ps.n == 3
    coords = [x for pt in ps.points for x in pt]
    assert all(isinstance(x, Fraction) for x in coords)
    assert any(x.denominator > 1 for x in coords)
    assert all(abs(pt[0]) <= 4 and pt[0].denominator <= 3 for pt in ps.points)
