import pytest

from quadfactor.modmath import iter_primes


@pytest.fixture(scope="session")
def primes_1mod4_1e5() -> list[int]:
    return list(iter_primes(5, 10**5, (4, 1)))
