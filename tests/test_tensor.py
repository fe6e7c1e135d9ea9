import numpy as np
import pytest

from conftest import stream
from mfgrow.errors import ParameterError
from mfgrow.tensor import Rng, constant, gaussian, pearson_abs, uniform


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).substream("a").normal(size=10)
        b = Rng(42).substream("a").normal(size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = Rng(1).substream("a").normal(size=10)
        b = Rng(2).substream("a").normal(size=10)
        assert not np.array_equal(a, b)

    def test_substreams_independent_of_draw_order(self):
        r = Rng(5)
        a1 = r.substream("alpha").normal(size=4)
        b1 = r.substream("beta").normal(size=4)
        r2 = Rng(5)
        b2 = r2.substream("beta").normal(size=4)
        a2 = r2.substream("alpha").normal(size=4)
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)

    def test_streams_keyed_exactly(self):
        # Seeds at or above 2**53 that a float64 key would round together:
        # every (seed, label) pair has its own stream.
        seeds = [0, 2**60 + 1, 2**60 + 2, 2**63 + 1, 2**63 + 2, 2**64 - 1]
        labels = ["", "0", "u", "v", "w1"]
        draws = {Rng(s).substream(label).random(4).tobytes() for s in seeds for label in labels}
        assert len(draws) == len(seeds) * len(labels)

    def test_top_seed_draws_without_warning(self):
        # The suite turns warnings into errors, a key cast warning among them.
        assert 0.0 <= Rng(2**64 - 1).substream("top").random() < 1.0

    @pytest.mark.parametrize("seed", [-1, 2**64, np.int64(-1), 2.7, 2.0, "7", True, None])
    def test_bad_seed(self, seed):
        # Only an int or NumPy integer in [0, 2**64) is a seed; nothing is
        # truncated or parsed into one.
        with pytest.raises(ParameterError, match="seed must be a 64-bit unsigned integer"):
            Rng(seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.int64(7), np.uint64(2**64 - 1)])
    def test_integer_seeds(self, seed):
        rng = Rng(seed)
        assert type(rng.seed) is int and rng.seed == int(seed)

    @pytest.mark.parametrize("label", [0, np.uint64(5), b"u"])
    def test_label_is_a_string(self, label):
        with pytest.raises(ParameterError, match="stream label must be a string"):
            Rng(0).substream(label)


class TestSample:
    def test_constant(self):
        out = constant(1.0).draw(stream(0), 4)
        assert np.array_equal(out, np.ones(4))

    def test_gaussian_moments(self):
        out = gaussian(1.0, 3.0).draw(stream(1), 100_000)
        assert abs(out.mean() - 1.0) < 0.05
        assert abs(out.std() - 3.0) < 0.05

    def test_uniform_mean(self):
        out = uniform(-1.0, 1.0).draw(stream(2), 100_000)
        assert abs(out.mean()) < 0.02

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            uniform(1.0, -1.0)
        with pytest.raises(ParameterError):
            gaussian(0.0, -0.5)

    @pytest.mark.parametrize("a, b", [(-1.7e308, 1.7e308), (0.0, float("inf")),
                                      (float("nan"), 1.0)])
    def test_uniform_width_must_be_finite(self, a, b):
        # Generator.uniform raises OverflowError unless b - a is finite.
        with pytest.raises(ParameterError, match="uniform needs 0 <= b - a < inf"):
            uniform(a, b)


class TestPearson:
    def test_self_is_one(self):
        x = stream(0).normal(size=100)
        assert pearson_abs(x, x) == pytest.approx(1.0)

    def test_negation_is_one(self):
        x = stream(0).normal(size=100)
        assert pearson_abs(x, -x) == pytest.approx(1.0)

    def test_constant_is_zero(self):
        assert pearson_abs(np.ones(10), np.arange(10.0)) == 0.0
