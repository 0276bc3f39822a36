import itertools

import pytest

from znfrob import DegreeVector, DimensionError, parity, scalar_product


def all_vectors(n):
    return [DegreeVector(bits) for bits in itertools.product((0, 1), repeat=n)]


def test_scalar_product_examples():
    assert scalar_product(DegreeVector.of(0, 0), DegreeVector.of(1, 1)) == 0
    assert scalar_product(DegreeVector.of(1, 0), DegreeVector.of(1, 1)) == 1
    assert scalar_product(DegreeVector.of(1, 1), DegreeVector.of(1, 1)) == 0


def test_parity_examples():
    assert parity(DegreeVector.of(0, 0)) == "even"
    assert parity(DegreeVector.of(0, 1)) == "odd"
    # nonzero yet even
    assert parity(DegreeVector.of(1, 1)) == "even"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetry_and_bilinearity_exhaustive(n):
    vs = all_vectors(n)
    for a in vs:
        for b in vs:
            assert scalar_product(a, b) == scalar_product(b, a)
    for a in vs:
        for b in vs:
            for c in vs:
                lhs = scalar_product(a + b, c)
                rhs = (scalar_product(a, c) + scalar_product(b, c)) % 2
                assert lhs == rhs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_parity_additivity_exhaustive(n):
    # <a+b, a+b> = <a,a> + <b,b> since the cross term is counted twice
    for a in all_vectors(n):
        for b in all_vectors(n):
            lhs = scalar_product(a + b, a + b)
            rhs = (scalar_product(a, a) + scalar_product(b, b)) % 2
            assert lhs == rhs


def test_length_mismatch():
    with pytest.raises(DimensionError):
        scalar_product(DegreeVector.of(1, 0), DegreeVector.of(1, 0, 1))
    with pytest.raises(DimensionError):
        DegreeVector.of(1, 0) + DegreeVector.of(1,)


def test_validation_and_json():
    with pytest.raises(DimensionError):
        DegreeVector(())
    with pytest.raises(DimensionError):
        DegreeVector((0, 2))
    with pytest.raises(DimensionError):
        DegreeVector((1.0, 0))
    with pytest.raises(DimensionError):
        DegreeVector((True, 0))
    with pytest.raises(DimensionError):
        DegreeVector.from_json([1.5, 0])
    v = DegreeVector.from_json([1, 0])
    assert v.to_json() == [1, 0]
    assert str(v) == "(1,0)"
