"""The JSON written for the ridge-sum classes, pinned byte for byte.

One tiny hand-built object of each class: a real and a complex decomposition,
each with and without `residual`.
"""

import json

import pytest

from ridgekit import (ComplexBiPolynomial, ComplexRidgeDecomposition, MultiIndexPolynomial,
                      RidgeDecomposition)


def real_decomposition(residual):
    profile = MultiIndexPolynomial(1, {(0,): 0.5, (2,): -1.25})
    return RidgeDecomposition(2, 1, [[[0.6, 0.8]]], [profile], residual)


def complex_decomposition(residual):
    profile = ComplexBiPolynomial(1, {((1,), (0,)): 0.5 - 2j, ((0,), (1,)): 1.0})
    return ComplexRidgeDecomposition(2, [[0.6, 0.8j]], [profile], residual)


REAL_BLOCKS = ('"blocks": [{"A": [[0.6, 0.8]], "P": {"dim": 1, "terms": '
               '[{"c": 0.5, "k": [0]}, {"c": -1.25, "k": [2]}]}}], "d": 2, "ell": 1')
COMPLEX_BLOCKS = ('"blocks": [{"P": {"dim": 1, "terms": [{"im": 0.0, "k": [0], "l": [1], '
                  '"re": 1.0}, {"im": -2.0, "k": [1], "l": [0], "re": 0.5}]}, "alpha": '
                  '[{"im": 0.0, "re": 0.6}, {"im": 0.8, "re": 0.0}]}], "d": 2')

GOLDEN = [
    (lambda: real_decomposition(2.5e-17), RidgeDecomposition.from_json_dict,
     "{" + REAL_BLOCKS + ', "residual": 2.5e-17}'),
    (lambda: real_decomposition(None), RidgeDecomposition.from_json_dict,
     "{" + REAL_BLOCKS + "}"),
    (lambda: complex_decomposition(1e-16), ComplexRidgeDecomposition.from_json_dict,
     "{" + COMPLEX_BLOCKS + ', "residual": 1e-16}'),
    (lambda: complex_decomposition(None), ComplexRidgeDecomposition.from_json_dict,
     "{" + COMPLEX_BLOCKS + "}"),
]


@pytest.mark.parametrize("build, read, text", GOLDEN,
                         ids=["real-residual", "real", "complex-residual", "complex"])
def test_json_is_pinned_and_round_trips(build, read, text):
    assert json.dumps(build().to_json_dict(), sort_keys=True) == text
    assert json.dumps(read(json.loads(text)).to_json_dict(), sort_keys=True) == text
