"""Refusals of out-of-range arguments that no other test reaches.

Each entry point raises ``ValueError`` with its own message.
"""

import pytest

from cobforge.chern import adjustable_base_spec, dkn_spec
from cobforge.milnor import point_blowup_delta
from cobforge.polytope import face, rigidity_demo, simplex, verify_complementary_equiv

CASES = {
    "dkn_spec(1, 0)": (lambda: dkn_spec(1, 0), "need n >= 2 and 0 <= k <= n-2"),
    "dkn_spec(5, 4)": (lambda: dkn_spec(5, 4), "need n >= 2 and 0 <= k <= n-2"),
    "adjustable_base_spec(2, 1)": (lambda: adjustable_base_spec(2, 1), "need n >= 3"),
    "adjustable_base_spec(4, 0)": (
        lambda: adjustable_base_spec(4, 0),
        "twist parameter a must be positive",
    ),
    "point_blowup_delta(1)": (lambda: point_blowup_delta(1), "dimension n must be >= 2"),
    "face(simplex(3), [0, 9])": (lambda: face(simplex(3), [0, 9]), "facet index out of range"),
    "verify_complementary_equiv(simplex(4), 0, 3)": (
        lambda: verify_complementary_equiv(simplex(4), 0, 3),
        "k must satisfy 0 <= k <= n-2, got 3",
    ),
    "rigidity_demo(2)": (lambda: rigidity_demo(2), "rigidity demo needs n >= 3"),
}


@pytest.mark.parametrize("case", CASES)
def test_unreached_refusals(case):
    call, message = CASES[case]
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
