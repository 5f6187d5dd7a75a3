import numpy as np
import pytest

from simspec.models import hill_model, kernel_model, random_trig_coeffs
from simspec.opmatrix import free_diagonal
from simspec.verify import oracle_eigenvalues

_ORACLE_CACHE = {}


@pytest.fixture(scope="session")
def oracle_cache():
    """Memoized (model, eigenvalues) per problem key; the large oracle solves
    are shared between acceptance criteria instead of repeated."""

    def get(key, builder):
        if key not in _ORACLE_CACHE:
            model = builder()
            dense = np.diag(free_diagonal(model.spectrum)) - model.perturbation.dense()
            _ORACLE_CACHE[key] = (model, oracle_eigenvalues(dense))
        return _ORACLE_CACHE[key]

    return get


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
