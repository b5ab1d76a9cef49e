import numpy as np
import pytest

from flowbalance.dataset import Dataset

# one line per acceptance criterion, echoed after the run summary
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def criterion():
    """Record and assert a pass/fail line for one acceptance criterion."""
    def check(num: int, label: str, ok: bool, detail: str = "") -> None:
        verdict = "PASS" if ok else "FAIL"
        line = f"criterion {num:02d} {verdict}  {label}"
        if detail:
            line += f"  [{detail}]"
        print(line)
        ACCEPTANCE_LINES.append(line)
        assert ok, line
    return check


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def brute_force_knn(scaled, i, scope_idx, k):
    """Reference: exhaustive sort by (squared distance, index), row i excluded."""
    d = [(float(np.sum((scaled[j] - scaled[i]) ** 2)), int(j)) for j in scope_idx if j != i]
    d.sort()
    return np.array([j for _, j in d[:k]], dtype=np.int64)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_blob_dataset(
    n_min: int,
    n_maj: int,
    d: int = 4,
    spread: float = 1.0,
    gap: float = 3.0,
    seed: int = 0,
) -> Dataset:
    """Two Gaussian blobs, minority labeled 1, deterministic per seed."""
    rng = np.random.default_rng(seed)
    maj = rng.normal(0.0, spread, size=(n_maj, d))
    mi = rng.normal(gap, spread, size=(n_min, d))
    feats = np.vstack([maj, mi])
    labels = np.concatenate([
        np.zeros(n_maj, dtype=np.int64),
        np.ones(n_min, dtype=np.int64),
    ])
    names = tuple(f"f{j}" for j in range(d))
    return Dataset(feats, labels, names)
