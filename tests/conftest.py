import numpy as np

from mfgrow.arch import GammaVar

_ACCEPTANCE_LINES = []

# The paper's residual and attention blocks, each as its (weight, axis, gamma)
# usages: the one statement of either block, which compute_partition turns
# into its partition through _block_table.
# - skip-block: two parallel paths from a shared input are re-merged by a
#   fourth matrix, so w1's rows carry two gammas. The block's outgoing axis
#   is a boundary and carries no gamma, which leaves w4's rows (and b4)
#   outside the partition.
# - attention-block: the query/key/value matrices all consume the projected
#   input, so their column gammas merge with the projection's row gammas. The
#   token dimension indexes no weight, so it has no gamma.
BLOCK_USAGES = {
    "skip-block": [
        ("w1", "row", 2), ("w1", "row", 5), ("w1", "col", 1), ("b1", "row", 2),
        ("b1", "row", 5), ("w2", "row", 3), ("w2", "col", 2), ("b2", "row", 3),
        ("w3", "row", 5), ("w3", "col", 4), ("b3", "row", 5), ("w4", "col", 5)],
    "attention-block": [
        ("w1", "row", 2), ("w1", "row", 3), ("w1", "row", 4), ("w1", "col", 1),
        ("b1", "row", 2), ("b1", "row", 3), ("b1", "row", 4), ("wq", "row", 5),
        ("wq", "col", 2), ("wk", "row", 5), ("wk", "col", 3), ("wv", "row", 6),
        ("wv", "col", 4), ("w2", "row", 7), ("w2", "col", 6), ("b2", "row", 7)],
}


def _block_table(usages, n: int):
    """compute_partition's arguments for a block's usages with every gamma
    hidden and ``n`` wide, each list in the order the usages give."""
    axis_gammas = {}
    for w, ax, gid in usages:
        axis_gammas.setdefault((w, ax), []).append(gid)
    return tuple(GammaVar(gid, n) for gid in dict.fromkeys(g for _, _, g in usages)), axis_gammas


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
