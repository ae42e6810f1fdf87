import random

import pytest

from skewplus.fields import Field


@pytest.fixture
def Q():
    return Field.rationals()


@pytest.fixture
def rng():
    return random.Random(20240)


# F_5 with its small pool, so zero pivots and row swaps occur; F_3(t) and
# Q with non-trivial denominators
@pytest.fixture(params=[(Field.prime(5), 1), (Field.prime(1000003), 9),
                        (Field.function_field(3), 5), (Field.rationals(), 5)],
                ids=["f5", "f1000003", "f3t", "q"])
def sparse_field(request):
    """(field, entry sampler drawing zero about 30% of the time)."""
    field, bound = request.param
    return field, lambda rng: field.zero() if rng.random() < 0.3 else field.sample(rng, bound)


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: full acceptance criteria")
