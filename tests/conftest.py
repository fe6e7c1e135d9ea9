import numpy as np

_ACCEPTANCE_LINES = []


def stream(seed: int, key: int = 0) -> np.random.Generator:
    """Test data's generator: SFC64 seeded as an ``Rng`` substream is, by a
    ``SeedSequence`` over the exact 128-bit key ``(seed, key)``, here with an
    integer ``key``."""
    entropy = np.array([seed, key], dtype=np.uint64)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
