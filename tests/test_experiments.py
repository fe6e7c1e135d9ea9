"""End-to-end drives of the scripted experiments on a small fixture dataset
written in the CIFAR binary format. Labels are a function of the pixels, so
training has something to learn; threshold checks stay with the full-scale
acceptance runs."""

import hashlib

import numpy as np
import pytest

from conftest import stream
from mfgrow.arch import PARAMETRIZATIONS
from mfgrow.data import CIFAR_RECORD, load_cifar10
from mfgrow.experiments import (
    _cifar_net,
    _fit,
    _transfer_experiment,
    fig1_heatmaps,
    table1,
    twolayer_regen,
    accuracy_experiment,
)


@pytest.fixture(scope="module")
def splits(tmp_path_factory):
    """The (train, test) splits of a fixture written in the CIFAR binary
    format, loaded once for the module."""
    root = tmp_path_factory.mktemp("cifar_fixture")
    gen = stream(77)

    def write(path, n):
        pixels = gen.integers(0, 256, size=(n, CIFAR_RECORD - 1), dtype=np.uint8)
        # Learnable rule: label tracks the mean intensity of the first block.
        means = pixels[:, :256].mean(axis=1) / 255.0
        labels = np.clip((means - 0.35) * 40.0, 0, 9).astype(np.uint8)
        blob = np.concatenate([labels[:, None], pixels], axis=1)
        path.write_bytes(blob.tobytes())

    write(root / "data_batch_1.bin", 768)
    write(root / "data_batch_2.bin", 768)
    write(root / "test_batch.bin", 384)
    return load_cifar10(root)


class TestCifarPipeline:
    def test_loss_decreases_first_epoch_all_parametrizations(self, splits):
        train_data, test_data = splits
        for param in ("SP", "muP", "MFP"):
            log = _fit(_cifar_net(param, 24, 0, train_data), 1, 0, train_data, test_data)
            first, last = log.rows[0][2], log.rows[-1][2]
            assert last < first, f"{param}: loss did not decrease ({first} -> {last})"

    def test_accuracy_pipeline_beats_chance(self, splits, tmp_path):
        result = accuracy_experiment(*splits, width=24, epochs=3, seeds=(0,),
                                     out_dir=tmp_path)
        # The fixture's medians (0.4193) fall short of the 0.43 threshold.
        assert not result["passed"]
        assert result["medians"]["MFP"] > 0.15  # chance is 0.1
        # Pinned bytes: any change to the scripted rates, batch size or seeding
        # of the shared training path shows up here.
        assert (tmp_path / "accuracy.csv").read_text() == (
            "parametrization,seed,test_acc\n"
            "SP,0,0.4193\n"
            "muP,0,0.4193\n"
            "MFP,0,0.4193\n"
        )

    def test_shared_training_path_pinned(self, splits):
        # The accuracy CSVs round to four digits, and on this fixture each
        # small net ends predicting one class, so a change of rate, batch size
        # or seed can leave them unchanged. The logged float64 losses cannot.
        train_data, test_data = splits
        h = hashlib.sha256()
        for param in PARAMETRIZATIONS:
            log = _fit(_cifar_net(param, 24, 0, train_data), 1, 0, train_data, test_data)
            h.update(np.array([row[2:5] for row in log.rows]).tobytes())
        assert h.hexdigest() == (
            "09e3a590786d733ea41eb4270efaaa463346f1ddb708c8562062b4a6d1b21eb7"
        )

    def test_table1_pipeline_structure(self, splits, tmp_path):
        result = table1(*splits, width=24, epochs=1, seeds=(0,), out_dir=tmp_path)
        assert set(result["medians"]) == {"SP", "muP", "MFP"}
        for stage in ("init", "trained"):
            assert len(result["medians"]["MFP"][stage]) == 4
        assert (tmp_path / "table1.csv").exists()
        assert (tmp_path / "table1_summary.txt").exists()

    def test_fig1_pipeline_writes_grids(self, splits, tmp_path):
        result = fig1_heatmaps(*splits, width=16, epochs=1, seed=0, out_dir=tmp_path)
        assert result["passed"]
        assert len(result["files"]) == 6
        for name in result["files"]:
            assert (tmp_path / name).exists()

    def test_transfer_pipeline_grow_and_prune(self, splits, tmp_path):
        grow = _transfer_experiment(
            *splits, source_width=16, target_width=48,
            rates=((0.0, 0.0), (1.0, 0.4)), seeds=(0,), transfer_epoch=1, post_epochs=1,
            out_dir=tmp_path, tag="smoke_grow",
        )
        assert set(grow["checks"]) == {"r1=0.0,r2=0.0", "r1=1.0,r2=0.4"}
        csv = (tmp_path / "smoke_grow.csv").read_text()
        # The source and the from-scratch benchmark are trained once per seed,
        # so the benchmark column cannot depend on the rates.
        rows = [line.split(",") for line in csv.splitlines()[1:]]
        assert len({row[5] for row in rows}) == 1
        # Same bytes as when both nets were retrained for every rate pair.
        assert csv == ("r1,r2,seed,epoch,test_acc,benchmark_acc\n"
                       "0.0,0.0,0,1,0.4193,0.4323\n"
                       "1.0,0.4,0,1,0.4193,0.4323\n")
        prune = _transfer_experiment(
            *splits, source_width=48, target_width=16,
            rates=((0.5, 0.5),), seeds=(0,), transfer_epoch=1, post_epochs=1,
            out_dir=tmp_path, tag="smoke_prune",
        )
        assert "r1=0.5,r2=0.5" in prune["checks"]


class TestRegenSeeds:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_regeneration_stable_across_seeds(self, seed):
        result = twolayer_regen(seed=seed, source_width=300, target_width=1200)
        assert result["passed"]

    @pytest.mark.parametrize("seed", range(40))
    def test_non_multiple_regeneration_within_bound(self, seed):
        # 1700 is no multiple of 500, so the growth draw samples a remainder
        # of 200 units; at criterion 7's 2000 = 4 x 500 it draws nothing.
        assert twolayer_regen(seed=seed, source_width=500, target_width=1700)["passed"]
