import pytest

from quadfactor.modmath import iter_primes


@pytest.fixture(scope="session")
def primes_1mod4_1e5() -> list[int]:
    return list(iter_primes(5, 10**5, (4, 1)))


@pytest.fixture(autouse=True)
def root_cache(tmp_path_factory, monkeypatch):
    """Every test gets its own empty root cache, so none reads or writes the
    developer's and each starts cold; subprocesses inherit the variable."""
    home = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home / "quadfactor"
