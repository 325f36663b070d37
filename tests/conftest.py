"""Shared test fixtures and the acceptance-check summary hook."""
import numpy as np
import pytest

from sdsbm import Dataset, ScoreTable


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.write_sep("-", "acceptance checks")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance(request):
    """Record one PASS/FAIL summary line per acceptance check, then assert."""
    lines = request.config._acceptance_lines

    def record(name, passed, detail=""):
        status = "PASS" if passed else "FAIL"
        lines.append(f"{status} {name}" + (f": {detail}" if detail else ""))
        assert passed, f"{name} failed: {detail}"

    return record


def random_memberships(n_epochs, n_items, n_clusters, seed=0):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(n_clusters), size=(n_epochs, n_items))


def random_blocks(n_epochs, n_clusters, n_labels, seed=0):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(n_labels), size=(n_epochs, n_clusters))


def random_dataset(n_epochs, n_items, n_labels, n_obs, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.integers(0, n_items, size=n_obs),
        rng.integers(0, n_labels, size=n_obs),
        rng.integers(0, n_epochs, size=n_obs),
        n_items=n_items, n_labels=n_labels, n_epochs=n_epochs,
    )


def item_counts(data):
    """(T, I) observation counts N_{t,i}, summed from the weighted unique triplets."""
    epochs, nodes, _, weights = data.compressed()
    T, I = data.n_epochs, data.n_items
    return np.bincount(epochs * I + nodes, weights=weights, minlength=T * I).reshape(T, I)


def score_table(scores, true_labels, weights=None):
    """A hand-built ScoreTable; every row stands for one observation unless weighted."""
    true_labels = np.asarray(true_labels)
    if weights is None:
        weights = np.ones(true_labels.shape, dtype=np.int64)
    return ScoreTable(np.asarray(scores), true_labels, np.asarray(weights))
