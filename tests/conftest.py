import sys

import pytest


@pytest.fixture
def int_digit_limit():
    """The interpreter's default limit on the digits of an int literal, set
    for the test and restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts integer literals of any length")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)
