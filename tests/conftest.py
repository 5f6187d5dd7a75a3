import numpy as np
import pytest

from simspec.models import hill_model, kernel_model, random_trig_coeffs
from simspec.opmatrix import Partition, Spectrum
from simspec.verify import oracle_eigenvalues

_ORACLE_CACHE = {}


@pytest.fixture(scope="session")
def oracle_cache():
    """Memoized (model, eigenvalues) per problem key; the large oracle solves
    are shared between acceptance criteria instead of repeated."""

    def get(key, builder):
        if key not in _ORACLE_CACHE:
            model = builder()
            dense = np.diag(model.spectrum.position_values) - model.perturbation.dense()
            _ORACLE_CACHE[key] = (model, oracle_eigenvalues(dense))
        return _ORACLE_CACHE[key]

    return get


def _partition(n, radius, mults=None):
    idx = np.arange(-n, n + 1)
    return Partition(Spectrum(idx, 2j * np.pi * idx, mults=mults), radius)


_BLOCK_PARTITIONS = {
    "coarse simple": lambda: _partition(5, 2),
    "trivial mult-2": lambda: _partition(4, -1, [2] * 9),
    "coarse mult-2": lambda: _partition(4, 1, [2] * 9),
    "mixed widths": lambda: _partition(4, 1, [1, 2, 3] * 3),
}


@pytest.fixture(scope="session", params=sorted(_BLOCK_PARTITIONS))
def block_partition(request):
    """Partitions whose blocks take every path of the structured block
    algebra: singletons next to a wide central group, 2 x 2 blocks only,
    a wide central group among 2 x 2 blocks, and widths 1 to 3 mixed."""
    return _BLOCK_PARTITIONS[request.param]()


@pytest.fixture(scope="session")
def kernel64():
    return kernel_model(64)


@pytest.fixture(scope="session")
def hill_acceptance_coeffs():
    # fixed draw so every test sees the same degree-8 real polynomial
    rng = np.random.default_rng(20260816)
    return random_trig_coeffs(rng, degree=8, scale=0.35, real=True)


@pytest.fixture(scope="session")
def hill128(hill_acceptance_coeffs):
    return hill_model(128, 0.5, hill_acceptance_coeffs)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, shown after the run."""
    import sys

    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    results = getattr(mod, "RESULTS", []) if mod else []
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted({num for num, _, _ in results}):
        rows = [(ok, detail) for n, ok, detail in results if n == num]
        verdict = "PASS" if all(ok for ok, _ in rows) else "FAIL"
        detail = "; ".join(detail for _, detail in rows)
        terminalreporter.write_line(f"ACCEPTANCE {num}: {verdict} - {detail}")
