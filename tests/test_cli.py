import copy
import functools
import json
import os
import re
import shutil
import struct
import tempfile
from pathlib import Path
from typing import get_origin

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stream
from mfgrow import cli, data, experiments
from mfgrow.arch import arch_from_json, arch_to_json, build_mlp, format_partition
from mfgrow.cli import main
from mfgrow.data import CIFAR_RECORD, load_checkpoint, load_cifar10, save_checkpoint
from mfgrow.errors import CheckpointError, ParameterError
from mfgrow.init import initialize, nonzero_mean_default, rc_eligible
from mfgrow.net import forward_batch, zeros_network
from mfgrow.tensor import Rng


@pytest.fixture
def example3_arch_file(tmp_path):
    g = build_mlp(4, 16, with_bias=True, with_skip=True)
    path = tmp_path / "example3.json"
    path.write_text(arch_to_json(g), encoding="utf-8")
    return path


@pytest.fixture
def small_ckpt(tmp_path):
    arch = build_mlp(3, 20, with_bias=True, parametrization="MFP")
    net = initialize(zeros_network(arch), nonzero_mean_default("MFP", arch), Rng(0))
    path = tmp_path / "small.ckpt"
    save_checkpoint(net, path, seed=0)
    return path


@pytest.fixture
def mfp_ckpt(tmp_path):
    """An MFP 20 -> 32 -> 32 -> 3 net: hidden groups 0 and 1, input group 2,
    output group 3."""
    arch = build_mlp(3, 32, with_bias=True, input_dim=20, output_dim=3, parametrization="MFP")
    net = initialize(zeros_network(arch), nonzero_mean_default("MFP", arch), Rng(0))
    path = tmp_path / "mfp.ckpt"
    save_checkpoint(net, path, seed=0)
    return path


# An 8-wide residual block as a hand-written arch file of topology
# "fragment", which no ArchGraph takes: no layers and no activations.
FRAGMENT_DOC = {
    "parametrization": "MFP", "topology": "fragment",
    "weights": ([{"name": f"w{i}", "kind": "matrix", "shape": [8, 8]} for i in range(1, 5)]
                + [{"name": f"b{i}", "kind": "vector", "shape": [8]} for i in range(1, 5)]),
    "usages": [{"weight": w, "axis": axis, "gamma": gamma} for w, axis, gamma in (
        ("w1", "row", 2), ("w1", "row", 5), ("w1", "col", 1), ("b1", "row", 2), ("b1", "row", 5),
        ("w2", "row", 3), ("w2", "col", 2), ("b2", "row", 3), ("w3", "row", 5), ("w3", "col", 4),
        ("b3", "row", 5), ("w4", "col", 5))],
    "gammas": [{"id": i, "width": 8, "role": "hidden"} for i in range(1, 6)],
    "layers": [], "activations": []}


def write_fragment_checkpoint(path):
    """A v1 checkpoint of FRAGMENT_DOC and zero weights. save_checkpoint
    writes only a Network, so the bytes are written here in its layout."""
    text = json.dumps(FRAGMENT_DOC, sort_keys=True, separators=(",", ":")).encode()
    weights = FRAGMENT_DOC["weights"]
    parts = [b"MFW1", struct.pack("<IQBI", 1, 0, 2, len(text)), text,
             struct.pack("<I", len(weights))]
    for w in weights:
        name, shape = w["name"], w["shape"]
        parts += [struct.pack("<H", len(name)), name.encode(),
                  struct.pack(f"<BB{len(shape)}I", 1, len(shape), *shape),
                  np.zeros(shape).tobytes()]
    path.write_bytes(b"".join(parts))


def synth_config(tmp_path, **overrides):
    cfg = {
        "parametrization": "MFP",
        "arch": {"builder": "mlp", "depth": 2, "widths": 32, "with_bias": False},
        "optimizer": {"kind": "sgd", "lr": 0.05, "batch_size": 32},
        "epochs": 2,
        "seeds": [0],
        "dataset": {"kind": "sine", "n": 128, "noise_std": 0.0},
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestGamma:
    def test_example3_file_prints_three_groups(self, example3_arch_file, capsys):
        assert main(["gamma", str(example3_arch_file)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3
        assert out[1] == "Γ_2: {γ_2, γ_3} width=16"

    def test_mlp_flag_prints_singletons(self, capsys):
        assert main(["gamma", "--mlp", "5"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        assert main(["gamma", str(bad)]) == 2

    def test_missing_args_exits_2(self):
        assert main(["gamma"]) == 2

    def test_mlp_width_defaults_to_8(self, capsys):
        outputs = []
        for flags in ([], ["--width", "8"], ["--width", "9"]):
            assert main(["gamma", "--mlp", "3", *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != outputs[2]

    @pytest.mark.parametrize("flags", [["--mlp", "3"], ["--width", "8"], ["--skip"], ["--bias"]])
    def test_mlp_flag_beside_a_file_exits_2(self, example3_arch_file, flags, capsys):
        assert main(["gamma", str(example3_arch_file), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: gamma with an architecture file takes no {flags[0]}\n"

    @pytest.mark.parametrize("flags", [["--width", "8"], ["--skip"], ["--bias"]])
    def test_mlp_flag_without_mlp_exits_2(self, flags, capsys):
        assert main(["gamma", *flags]) == 2
        assert capsys.readouterr().out == ""

    def test_mlp_width_0_is_not_replaced_by_the_default(self):
        assert main(["gamma", "--mlp", "3", "--width", "0"]) == 2


class TestTrainCli:
    def test_train_writes_log_and_checkpoint(self, tmp_path, capsys):
        cfg = synth_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "train_seed0.csv").exists()
        assert (out_dir / "trained_seed0.ckpt").exists()
        header = (out_dir / "train_seed0.csv").read_text().splitlines()[0]
        assert header == "epoch,step,train_loss,test_loss,test_acc,seed"

    def test_seed_determinism_byte_identical(self, tmp_path):
        cfg = synth_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--seed", "7"]) == 0
        first = (tmp_path / "out" / "train_seed7.csv").read_bytes()
        first_ckpt = (tmp_path / "out" / "trained_seed7.ckpt").read_bytes()
        assert main(["train", "--config", str(cfg), "--seed", "7"]) == 0
        assert (tmp_path / "out" / "train_seed7.csv").read_bytes() == first
        assert (tmp_path / "out" / "trained_seed7.ckpt").read_bytes() == first_ckpt

    def test_unknown_config_key_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"parametrization": "MFP", "bogus": 1}), encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_last_update_divergence_exits_2(self, tmp_path, capsys):
        # One batch a run: the only batch loss is finite, and the update that
        # follows it sends the weights to about 1e301, where the loss
        # overflows.
        cfg = synth_config(tmp_path, epochs=1, dataset={"kind": "sine", "n": 8},
                           optimizer={"kind": "sgd", "lr": 1e300, "batch_size": 32})
        assert main(["train", "--config", str(cfg)]) == 2
        assert "diverged in the last update" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trained_seed0.ckpt").exists()

    def test_cifar_loaded_once_for_all_seeds(self, tmp_path, monkeypatch):
        # A tiny CIFAR-format set on disk: both seeds train on one load.
        gen = np.random.default_rng(0)
        data_dir = tmp_path / "cifar"
        data_dir.mkdir()
        for name in ("data_batch_1.bin", "test_batch.bin"):
            records = gen.integers(0, 256, size=(16, CIFAR_RECORD), dtype=np.uint8)
            records[:, 0] %= 10
            (data_dir / name).write_bytes(records.tobytes())
        loads = []
        monkeypatch.setattr(cli, "load_cifar10", lambda d: loads.append(d) or load_cifar10(d))
        cfg = synth_config(tmp_path, epochs=1, seeds=[0, 1],
                           dataset={"kind": "cifar10", "dir": str(data_dir)},
                           arch={"builder": "mlp", "depth": 2, "widths": 4,
                                 "input_dim": 3072, "output_dim": 10})
        assert main(["train", "--config", str(cfg)]) == 0
        assert len(loads) == 1
        assert {p.name for p in (tmp_path / "out").glob("*.ckpt")} == {
            "trained_seed0.ckpt", "trained_seed1.ckpt"}

    def test_cifar_without_data_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("MFGROW_CIFAR10_DIR", raising=False)
        cfg = synth_config(tmp_path, dataset={"kind": "cifar10"})
        assert main(["train", "--config", str(cfg)]) == 3
        assert "MFGROW_CIFAR10_DIR" in capsys.readouterr().err


class TestTransferCli:
    def test_transfer_roundtrip(self, small_ckpt, tmp_path, capsys):
        out_ckpt = tmp_path / "big.ckpt"
        rc = main([
            "transfer", "--from", str(small_ckpt), "--widths", "60",
            "--strategy", "random", "--r1", "0.1", "--r2", "0.0",
            "--seed", "7", "--out", str(out_ckpt),
        ])
        assert rc == 0
        grown = load_checkpoint(out_ckpt)
        assert grown.store["w1"].shape == (60, 60)

    def test_duplicate_preserves_function(self, small_ckpt, tmp_path):
        out_ckpt = tmp_path / "dup.ckpt"
        rc = main([
            "transfer", "--from", str(small_ckpt), "--widths", "40",
            "--strategy", "duplicate", "--out", str(out_ckpt),
        ])
        assert rc == 0
        src = load_checkpoint(small_ckpt)
        dup = load_checkpoint(out_ckpt)
        xs = stream(1).normal(size=(50, 1))
        assert np.allclose(forward_batch(dup, xs), forward_batch(src, xs), atol=1e-12)

    def test_fragment_without_layers_exits_2(self, tmp_path, capsys):
        src = tmp_path / "fragment.ckpt"
        write_fragment_checkpoint(src)
        rc = main(["transfer", "--from", str(src), "--widths", "16",
                   "--out", str(tmp_path / "big.ckpt")])
        assert rc == 2
        assert "unknown topology 'fragment'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        (command, flag)
        for command, flags in (
            ("transfer", [["--noise", "literal"], ["--n-groups", "3"], ["--n-candidates", "8"],
                          ["--p-max", "2"]]),
            ("diagnose", [["--normalize", "zscore"]]))
        for flag in flags
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_removed_flag_exits_2_and_writes_nothing(self, command, flag, small_ckpt, tmp_path,
                                                     capsys):
        # Noise is always w * (1 + u), the strategies' knobs are constants,
        # and heatmaps are min-max only.
        argv = {"transfer": ["transfer", "--from", str(small_ckpt), "--widths", "40",
                             "--strategy", "function_based", "--out", str(tmp_path / "big.ckpt")],
                "diagnose": ["diagnose", "--ckpt", str(small_ckpt), "--report", "heatmap",
                             "--out", str(tmp_path / "diag")]}[command]
        before = _tree(tmp_path)
        assert main(argv + flag) == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert _tree(tmp_path) == before

    def test_removed_sample_command_exits_2_and_writes_nothing(self, small_ckpt, tmp_path,
                                                               capsys):
        # A transfer reports the indices it draws; there is no second command
        # that redraws them.
        before = _tree(tmp_path)
        assert main(["sample", "--ckpt", str(small_ckpt), "--group", "1", "--target", "50",
                     "--out", str(tmp_path / "samp")]) == 2
        assert "invalid choice: 'sample'" in capsys.readouterr().err
        assert _tree(tmp_path) == before

    def test_non_finite_checkpoint_transfers_like_random(self, tmp_path):
        # Every candidate of an all-NaN w1 scores NaN, so function_based
        # keeps its first candidate: the draw random makes.
        arch = build_mlp(3, 20, with_bias=True, input_dim=5, output_dim=3, parametrization="MFP")
        net = initialize(zeros_network(arch), nonzero_mean_default("MFP", arch), Rng(0))
        net.store["w1"][...] = np.nan
        save_checkpoint(net, tmp_path / "nan.ckpt")
        for strategy in ("random", "function_based"):
            assert main(["transfer", "--from", str(tmp_path / "nan.ckpt"), "--widths", "33",
                         "--strategy", strategy, "--out", str(tmp_path / f"{strategy}.ckpt")]) == 0
        assert (tmp_path / "function_based.ckpt").read_bytes() == \
            (tmp_path / "random.ckpt").read_bytes()

    def test_out_dev_null_exits_0(self, small_ckpt):
        assert main(["transfer", "--from", str(small_ckpt), "--widths", "40",
                     "--out", os.devnull]) == 0

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_failure_exits_2(self, small_ckpt, capsys):
        assert main(["transfer", "--from", str(small_ckpt), "--widths", "40",
                     "--out", "/dev/full"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write checkpoint /dev/full")
        assert captured.out == ""  # the report follows the saved checkpoint


class TestDiagnoseCli:
    def test_corr_report(self, small_ckpt, tmp_path):
        out = tmp_path / "diag"
        assert main(["diagnose", "--ckpt", str(small_ckpt), "--report", "corr",
                     "--out", str(out)]) == 0
        text = (out / "correlations.csv").read_text()
        assert text.splitlines()[0] == "profile_a,profile_b,abs_pearson"

    def test_corrupt_checkpoint_exits_2(self, small_ckpt, tmp_path, capsys):
        raw = bytearray(small_ckpt.read_bytes())
        raw[30] ^= 0x80  # inside the arch JSON: no longer UTF-8
        small_ckpt.write_bytes(bytes(raw))
        assert main(["diagnose", "--ckpt", str(small_ckpt), "--report", "corr",
                     "--out", str(tmp_path / "diag")]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_heatmap_report(self, small_ckpt, tmp_path):
        out = tmp_path / "diag"
        assert main(["diagnose", "--ckpt", str(small_ckpt), "--report", "heatmap",
                     "--out", str(out)]) == 0
        assert (out / "w1.grid").exists()
        assert (out / "w1.gp").exists()

    def test_hist_report(self, small_ckpt, tmp_path):
        out = tmp_path / "diag"
        assert main(["diagnose", "--ckpt", str(small_ckpt), "--ckpt", str(small_ckpt),
                     "--report", "hist", "--out", str(out)]) == 0
        assert (out / "w1_hist.csv").exists()


def _transfer_report(capsys, ckpt, out, *flags):
    """The JSON report ``mfgrow transfer`` prints, and its exact stdout."""
    assert main(["transfer", "--from", str(ckpt), "--out", str(out), *flags]) == 0
    text = capsys.readouterr().out
    return json.loads(text), text


class TestTransferReport:
    @pytest.mark.parametrize("skip, flags, unique, multiplicity", [
        # A grow past the r2 = 0.5 pool of 16 takes each pool unit 3 or 4 times.
        (False, ["--widths", "50", "--r1", "0.5", "--r2", "0.5"], 16, 4),
        (False, ["--widths", "8", "--r2", "0.5"], 8, 1),
        (False, ["--widths", "32"], 32, 1),  # a same-size draw permutes
        (False, ["--widths", "64", "--strategy", "duplicate"], 32, 2),
        # skip4's merged group: 40 = 2 * 16 + 8.
        (True, ["--widths", "40"], 16, 3),
    ], ids=["grow", "prune", "permute", "duplicate", "skip4"])
    def test_report_layout(self, skip, flags, unique, multiplicity, mfp_ckpt, tmp_path,
                           capsys):
        ckpt = mfp_ckpt
        if skip:
            arch = build_mlp(4, 16, with_bias=True, with_skip=True, input_dim=5, output_dim=3,
                             parametrization="MFP")
            ckpt = tmp_path / "skip4.ckpt"
            save_checkpoint(initialize(zeros_network(arch), nonzero_mean_default("MFP", arch),
                                       Rng(0)), ckpt)
        out = tmp_path / "t.ckpt"
        report, text = _transfer_report(capsys, ckpt, out, *flags, "--seed", "3")
        assert text.count("\n") == 1
        assert list(report) == ["checkpoint", "seed", "strategy", "r1", "r2", "groups"]
        args = cli.build_parser().parse_args(["transfer", "--from", "x", "--out", "y", *flags])
        assert [report[k] for k in ("checkpoint", "seed", "strategy", "r1", "r2")] == \
            [str(out), 3, args.strategy, args.r1, args.r2]
        # Both nets have hidden groups 0 and 1 and data groups 2 and 3; only
        # the hidden ones are resized.
        partition = load_checkpoint(ckpt).arch.partition
        assert [g["group"] for g in report["groups"]] == [0, 1]
        for g in report["groups"]:
            assert list(g) == ["group", "width", "target", "unique", "max_multiplicity",
                               "indices"]
            counts = np.bincount(g["indices"])
            assert g["width"] == partition.widths[g["group"]]
            assert g["target"] == len(g["indices"]) == args.widths
            assert g["unique"] == np.count_nonzero(counts) == unique
            assert g["max_multiplicity"] == counts.max() == multiplicity

    # The weight whose rows (axis 0) or columns (axis 1) a hidden group
    # indexes, its other axis data-tied: u's rows are group 0, v's columns
    # group 1.
    GATHERED_BY = {0: ("u", 0), 1: ("v", 1)}

    @pytest.mark.parametrize("group", [0, 1])
    @pytest.mark.parametrize("r2", [0.0, 0.5])
    @pytest.mark.parametrize("target", [50, 8], ids=["grow", "prune"])
    @pytest.mark.parametrize("strategy", ["random", "group", "function_based"])
    def test_indices_are_the_transfer_draw(self, strategy, target, r2, group, mfp_ckpt,
                                           tmp_path, capsys):
        out = tmp_path / "t.ckpt"
        report, _ = _transfer_report(capsys, mfp_ckpt, out, "--widths", str(target),
                                     "--strategy", strategy, "--r2", str(r2), "--seed", "3")
        reported = report["groups"][group]
        assert reported["group"] == group
        name, axis = self.GATHERED_BY[group]
        src = np.moveaxis(load_checkpoint(mfp_ckpt).store[name], axis, 0)
        dst = np.moveaxis(load_checkpoint(out).store[name], axis, 0)
        # Each source slice is distinct, so each gathered slice names its source.
        matches = (dst[:, None, :] == src[None, :, :]).all(axis=2)
        assert (matches.sum(axis=1) == 1).all()
        assert reported["indices"] == matches.argmax(axis=1).tolist()

    @pytest.mark.parametrize("strategy", ["random", "group", "function_based"])
    def test_same_seed_same_bytes(self, strategy, mfp_ckpt, tmp_path, capsys):
        out = tmp_path / "t.ckpt"
        flags = ["--widths", "50", "--strategy", strategy, "--r1", "0.5", "--r2", "0.5"]
        runs = []
        for seed in ("3", "3", "4"):
            report, text = _transfer_report(capsys, mfp_ckpt, out, *flags, "--seed", seed)
            runs.append((report, text, out.read_bytes()))
        assert runs[0][1:] == runs[1][1:]
        assert [g["indices"] for g in runs[0][0]["groups"]] != \
            [g["indices"] for g in runs[2][0]["groups"]]


# The flags each experiment of `mfgrow reproduce` reads; a value for each
# flag (zero where it can be: a given zero is still given), and the parameter
# and value it gives an experiment that reads it. --r2 comes with --r1 1.0.
REPRODUCE_READS = {
    "accuracy": {"--seeds", "--cifar"},
    "fig1": {"--seed", "--cifar"},
    "fig2_grow": {"--seeds", "--r1", "--r2", "--cifar"},
    "fig2_prune": {"--seeds", "--r1", "--r2", "--cifar"},
    "table1": {"--seeds", "--cifar"},
    "twolayer_regen": {"--seed"},
    "update_probe": set(),
}
REPRODUCE_FLAGS = {"--seed": "0", "--seeds": "2", "--r1": "0.0", "--r2": "0.5",
                   "--cifar": "{tmp}/cifar7"}
REPRODUCE_VALUES = {"--seed": ("seed", 0), "--seeds": ("seeds", (0, 1)),
                    "--r1": ("rates", ((0.0, 0.0),)), "--r2": ("rates", ((1.0, 0.5),))}


@pytest.fixture
def one_record_cifar(tmp_path, monkeypatch):
    """One-record CIFAR-10 directories: MFGROW_CIFAR10_DIR names cifar3,
    whose records have label 3, and cifar7's have label 7."""
    for label in (3, 7):
        (tmp_path / f"cifar{label}").mkdir()
        for file in ("data_batch_1.bin", "test_batch.bin"):
            (tmp_path / f"cifar{label}" / file).write_bytes(bytes([label]) +
                                                            bytes(CIFAR_RECORD - 1))
    monkeypatch.setenv("MFGROW_CIFAR10_DIR", str(tmp_path / "cifar3"))


def _recording(monkeypatch, name):
    """Replace the experiment ``name`` with one of its signature that records
    its arguments and passes."""
    calls = []

    @functools.wraps(experiments.REPRODUCIBLE[name])
    def record(**kwargs):
        calls.append(kwargs)
        return {"passed": True, "summary": "ok"}
    monkeypatch.setitem(experiments.REPRODUCIBLE, name, record)
    return calls


class TestReproduceCli:
    def test_twolayer_regen_passes(self, tmp_path, capsys):
        rc = main(["reproduce", "twolayer_regen", "--out", str(tmp_path / "r")])
        out = capsys.readouterr().out
        assert "ratio=" in out
        assert rc == 0
        assert (tmp_path / "r" / "twolayer_regen.txt").exists()

    def test_cifar_experiments_exit_3_without_data(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MFGROW_CIFAR10_DIR", raising=False)
        for name in ("table1", "fig1", "fig2_grow", "fig2_prune", "accuracy"):
            assert main(["reproduce", name, "--out", str(tmp_path / name)]) == 3

    def test_r1_alone_transfers_at_r2_zero(self, tmp_path, capsys):
        data_dir = tmp_path / "cifar"
        data_dir.mkdir()
        for name in ("data_batch_1.bin", "test_batch.bin"):
            (data_dir / name).write_bytes(bytes(CIFAR_RECORD))
        assert main(["reproduce", "fig2_grow", "--r1", "1.0", "--seeds", "1",
                     "--cifar", str(data_dir), "--out", str(tmp_path / "rep")]) in (0, 1)
        assert capsys.readouterr().out.startswith("r1=1.0,r2=0.0: ")
        rows = (tmp_path / "rep" / "fig2_grow.csv").read_text().splitlines()
        assert [row.split(",")[:3] for row in rows[1:]] == [["1.0", "0.0", "0"]]

    def test_twolayer_regen_top_seed_runs(self, tmp_path, capsys):
        assert main(["reproduce", "twolayer_regen", "--seed", str(2**64 - 1),
                     "--out", str(tmp_path / "r")]) == 0
        assert "ratio=" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(REPRODUCE_READS))
    def test_no_flags_take_the_defaults(self, name, tmp_path, monkeypatch, one_record_cifar):
        calls = _recording(monkeypatch, name)
        assert main(["reproduce", name, "--out", str(tmp_path / "rep")]) == 0
        kwargs = calls[0]
        assert kwargs.pop("out_dir") == tmp_path / "rep"
        if "--cifar" in REPRODUCE_READS[name]:
            assert kwargs.pop("train_data").targets.tolist() == [3]
            assert kwargs.pop("test_data").targets.tolist() == [3]
        assert kwargs == ({"seeds": (0, 1, 2)} if "--seeds" in REPRODUCE_READS[name] else {})

    @pytest.mark.parametrize("flag", sorted(REPRODUCE_FLAGS))
    @pytest.mark.parametrize("name", sorted(REPRODUCE_READS))
    def test_each_flag_is_read_or_refused(self, name, flag, tmp_path, monkeypatch, capsys,
                                          one_record_cifar):
        calls = _recording(monkeypatch, name)
        argv = ["reproduce", name, flag, REPRODUCE_FLAGS[flag].format(tmp=tmp_path),
                "--out", str(tmp_path / "rep")]
        if flag not in REPRODUCE_READS[name]:
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: reproduce {name} takes no {flag}\n"
            assert not calls and not (tmp_path / "rep").exists()
        elif flag == "--cifar":
            assert main(argv) == 0
            assert calls[0]["train_data"].targets.tolist() == [7]
            assert calls[0]["test_data"].targets.tolist() == [7]
        else:
            assert main(argv + ["--r1", "1.0"] * (flag == "--r2")) == 0
            key, value = REPRODUCE_VALUES[flag]
            assert calls[0][key] == value

    def test_init_writes_checkpoint(self, tmp_path):
        cfg = synth_config(tmp_path)
        assert main(["init", "--config", str(cfg), "--seed", "4"]) == 0
        ckpt = tmp_path / "out" / "init_seed4.ckpt"
        assert ckpt.exists()
        load_checkpoint(ckpt)
        assert struct.unpack_from("<Q", ckpt.read_bytes(), 8) == (4,)


def _init_config(tmp_path, **init):
    """A depth-3 config whose init section is a valid rc spec with ``init``
    entries replaced."""
    dist = {"kind": "gaussian", "a": 0.0, "b": 1.0}
    section = {"mode": "rc", "distributions": {"u": dist, "v": dist},
               "rc_pairs": {"w1": [dist, dist]}, "phi": "sum"}
    section.update(init)
    return synth_config(tmp_path, init=section,
                        arch={"builder": "mlp", "depth": 3, "widths": 32, "with_bias": False})


class TestInitConfig:
    def test_valid_rc_config_writes_checkpoint(self, tmp_path):
        assert main(["init", "--config", str(_init_config(tmp_path)), "--seed", "1"]) == 0
        assert (tmp_path / "out" / "init_seed1.ckpt").exists()

    def test_unknown_mode_exits_2(self, tmp_path, capsys):
        cfg = _init_config(tmp_path, mode="iid-typo")
        assert main(["init", "--config", str(cfg), "--seed", "1"]) == 2
        assert "init mode" in capsys.readouterr().err
        assert not (tmp_path / "out" / "init_seed1.ckpt").exists()

    def test_init_not_an_object_exits_2(self, tmp_path, capsys):
        cfg = synth_config(tmp_path, init=["rc"])
        assert main(["init", "--config", str(cfg), "--seed", "1"]) == 2
        assert "'init'" in capsys.readouterr().err

    @pytest.mark.parametrize("init", [
        {"mode": "iid", "distributions": {k: {"kind": "constant", "a": 1.0}
                                          for k in ("u", "v", "w9")}},
        {"mode": "rc", "distributions": {k: {"kind": "constant", "a": 1.0}
                                         for k in ("u", "v", "w1")},
         "rc_pairs": {"w1": [{"kind": "constant", "a": 1.0}, {"kind": "constant", "a": 1.0}]}},
        {"mode": "rc", "distributions": {k: {"kind": "constant", "a": 1.0} for k in ("u", "v")},
         "rc_pairs": {"w1": [{"kind": "constant", "a": 1.0}, {"kind": "constant", "a": 1.0}]},
         "phi": {"w1": "sum", "u": "product"}},
    ], ids=["iid-absent-weight", "rc-distribution-for-paired-weight", "phi-without-pair"])
    def test_entry_for_a_weight_the_init_does_not_draw_exits_2(self, tmp_path, capsys, init):
        depth = 2 if init["mode"] == "iid" else 3
        cfg = synth_config(tmp_path, init=init,
                           arch={"builder": "mlp", "depth": depth, "widths": 8,
                                 "with_bias": False})
        assert main(["init", "--config", str(cfg), "--seed", "1"]) == 2
        assert "does not read" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry", [
        {"distributions": {"u": {"a": 0.0, "b": 1.0}, "v": {"kind": "constant", "a": 1.0}}},
        {"distributions": {"u": {"kind": "uniform", "a": "low", "b": 1.0},
                           "v": {"kind": "constant", "a": 1.0}}},
        {"distributions": {"u": {"kind": "gaussian", "a": 0.0, "b": [1.0]},
                           "v": {"kind": "constant", "a": 1.0}}},
        {"rc_pairs": {"w1": [{"kind": "constant", "a": 1.0}]}},
        {"rc_pairs": {"w1": {"kind": "constant", "a": 1.0}}},
        {"phi": ["sum"]},
        {"distributions": ["u", "v"]},
        {"distributions": {"u": {"kind": "gaussian", "mean": 1, "std": 3},
                           "v": {"kind": "constant", "a": 1.0}}},
        {"mode": "iid", "distributions": {k: {"kind": "constant", "a": 1.0}
                                          for k in ("u", "w1", "v")}},
        {"seed": 3},
    ], ids=["no-kind", "string-a", "list-b", "one-element-pair", "pair-not-list",
            "phi-list", "distributions-list", "mean-std-typo", "iid-with-rc-keys",
            "unknown-init-key"])
    def test_malformed_entry_exits_2(self, tmp_path, capsys, entry):
        cfg = _init_config(tmp_path, **entry)
        assert main(["init", "--config", str(cfg), "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: init")


class TestConfigValues:
    @pytest.mark.parametrize("arch,code", [
        ({"file": "{arch}"}, 0),
        ({"builder": "file", "file": "{arch}"}, 0),
        ({"file": "{arch}", "depth": 3}, 2),
        ({"file": "{arch}", "widths": 8}, 2),
    ], ids=["file", "builder-file", "file-with-depth", "file-with-widths"])
    def test_arch_file_takes_no_builder_keys(self, example3_arch_file, tmp_path, arch, code):
        arch = {k: v.format(arch=example3_arch_file) if isinstance(v, str) else v
                for k, v in arch.items()}
        cfg = synth_config(tmp_path, arch=arch)
        assert main(["init", "--config", str(cfg), "--seed", "1"]) == code
        assert (tmp_path / "out").exists() == (code == 0)

    @pytest.mark.parametrize("command,section,entry", [
        ("init", "arch", {"depth": "x"}),
        ("init", "arch", {"widths": "abc"}),
        ("init", "arch", {"widths": [32, "x"]}),
        ("init", "arch", {"input_dim": None}),
        ("init", "arch", {"depth": 4, "with_skip": "no"}),
        ("init", "arch", {"with_bias": 1}),
        ("init", "arch", {"depth": 3.0}),
        ("init", "arch", {"depth": True}),
        ("init", "arch", {"file": 5}),
        ("train", None, {"epochs": "x"}),
        ("train", "optimizer", {"lr": "fast"}),
        ("train", "optimizer", {"lr": float("nan")}),
        ("train", "optimizer", {"batch_size": None}),
        ("train", None, {"seeds": 5}),
        ("train", None, {"seeds": ["a"]}),
        ("train", None, {"seeds": []}),
        ("train", "dataset", {"n": "many"}),
        ("train", None, {"out_dir": 5}),
        ("train", "optimizer", {"batch_size": 0}),
        ("train", "optimizer", {"lr": -1}),
        ("train", "optimizer", {"kind": "sgdx"}),
        ("train", "dataset", {"n": 0}),
        ("train", "dataset", {"test_n": 0}),
        ("train", "dataset", {"noise_std": -1}),
        ("train", None, {"seeds": [-1]}),
        ("train", None, {"seeds": [0, -1]}),
        ("init", None, {"seeds": [0, 2**64]}),
        ("train", None, {"epochs": -1}),
        ("train", None, {"transfer": {"anything": [1, 2]}}),
        ("init", None, {"transfer": {}}),
        ("train", "dataset", {"kind": "cifar10"}),
        ("train", "dataset", {"dir": "cifar"}),
        ("init", "dataset", {"kind": "cubic", "dir": "cifar"}),
        ("init", "arch", {"file": "arch.json"}),
        ("init", "arch", {"builder": "file"}),
        ("init", "arch", {"builder": "resnet"}),
        ("train", "optimizer", {"momentum": 0.9}),
    ], ids=["depth-string", "widths-string", "widths-entry-string", "input-dim-null",
            "with-skip-string", "with-bias-int", "depth-float", "depth-bool", "file-int",
            "epochs-string", "lr-string", "lr-nan", "batch-size-null", "seeds-int",
            "seeds-entry-string", "seeds-empty", "n-string", "out-dir-int", "batch-size-zero",
            "lr-negative", "optimizer-kind-unknown", "n-zero", "test-n-zero",
            "noise-std-negative", "seed-negative", "second-seed-negative", "seed-too-big",
            "epochs-negative", "transfer-key", "transfer-key-init", "cifar-with-synthetic-keys",
            "synthetic-with-dir", "synthetic-with-dir-init", "file-with-builder-keys",
            "builder-file-without-file", "builder-unknown", "optimizer-unknown-key"])
    def test_malformed_value_exits_2(self, tmp_path, capsys, command, section, entry):
        cfg = json.loads(synth_config(tmp_path).read_text(encoding="utf-8"))
        (cfg[section] if section else cfg).update(entry)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: config ")
        assert not (tmp_path / "out").exists()  # checked before out_dir is made


def _tree(root):
    """Every path under ``root``, with the bytes of each file."""
    return {p: (p.read_bytes() if p.is_file() else None) for p in root.rglob("*")}


class TestFailedCommandsWriteNothing:
    @pytest.mark.parametrize("argv,code", [
        (["transfer", "--from", "{ckpt}", "--widths", "0", "--out", "{tmp}/t.ckpt"], 2),
        (["transfer", "--from", "{ckpt}", "--widths", "30", "--strategy", "duplicate",
          "--out", "{tmp}/t.ckpt"], 2),
        (["reproduce", "table1", "--out", "{tmp}/rep"], 3),
        (["reproduce", "table1", "--cifar", "{tmp}/nonexistent", "--out", "{tmp}/rep"], 3),
        (["diagnose", "--ckpt", "{ckpt}", "--report", "heatmap", "--weight", "u",
          "--out", "{tmp}/diag"], 2),
        (["diagnose", "--ckpt", "{ckpt}", "--report", "hist", "--weight", "nope",
          "--out", "{tmp}/diag"], 2),
        (["diagnose", "--ckpt", "{ckpt}", "--ckpt", "{ckpt}", "--report", "heatmap",
          "--out", "{tmp}/diag"], 2),
        (["diagnose", "--ckpt", "{ckpt}", "--ckpt", "{ckpt}", "--report", "corr",
          "--out", "{tmp}/diag"], 2),
        (["diagnose", "--ckpt", "{ckpt}", "--report", "corr", "--weight", "w1",
          "--out", "{tmp}/diag"], 2),
        (["transfer", "--from", "{ckpt}", "--widths", "40", "--out", "{tmp}/taken"], 2),
        (["train", "--config", "{cfg}", "--out", "{tmp}/file"], 2),
        (["diagnose", "--ckpt", "{tmp}/vectors.ckpt", "--report", "hist", "--out", "{tmp}/diag"], 2),
        (["reproduce", "accuracy", "--cifar", "{tmp}/truncated", "--out", "{tmp}/rep"], 2),
        (["reproduce", "accuracy", "--cifar", "{tmp}/dir-batch", "--out", "{tmp}/rep"], 2),
        (["reproduce", "accuracy", "--cifar", "{tmp}/bad-label", "--out", "{tmp}/rep"], 2),
        (["reproduce", "accuracy", "--seeds", "0", "--cifar", "{tmp}/good", "--out", "{tmp}/rep"],
         2),
        (["reproduce", "table1", "--seeds", "-2", "--cifar", "{tmp}/good", "--out", "{tmp}/rep"],
         2),
        (["reproduce", "fig2_grow", "--r1", "1.0", "--r2", "1.5", "--cifar", "{tmp}/good",
          "--out", "{tmp}/rep"], 2),
        (["reproduce", "fig2_grow", "--r2", "0.99", "--cifar", "{tmp}/good", "--out", "{tmp}/rep"],
         2),
        (["reproduce", "twolayer_regen", "--seed", "-1", "--out", "{tmp}/rep"], 2),
        (["reproduce", "twolayer_regen", "--seed", str(2**64), "--out", "{tmp}/rep"], 2),
        (["transfer", "--from", "{ckpt}", "--widths", "40", "--r1", "nan", "--out", "{tmp}/t.ckpt"],
         2),
        (["transfer", "--from", "{ckpt}", "--widths", "40", "--r2", "5", "--out", "{tmp}/t.ckpt"],
         2),
        (["transfer", "--from", "{ckpt}", "--widths", "40", "--r2", "nan", "--out", "{tmp}/t.ckpt"],
         2),
        (["train", "--config", "{cfg}", "--seed", "-1"], 2),
        (["init", "--config", "{cfg}", "--seed", str(2**64)], 2),
        (["train", "--config", "{tmp}/output-dim-3.json"], 2),
        (["train", "--config", "{tmp}/input-dim-2.json"], 2),
        (["train", "--config", "{tmp}/width-scale-overflow.json"], 2),
        (["train", "--config", "{tmp}/rate-overflow.json"], 2),
        (["train", "--config", "{tmp}/rate-underflow.json"], 2),
        (["train", "--config", "{tmp}/fragment.json"], 2),
        (["init", "--config", "{tmp}/fragment.json"], 2),
        (["init", "--config", "{tmp}/uniform-overflow.json"], 2),
        (["diagnose", "--ckpt", "{tmp}/fragment.ckpt", "--report", "corr", "--out", "{tmp}/diag"],
         2),
        (["transfer", "--from", "{tmp}/fragment.ckpt", "--widths", "16", "--out",
          "{tmp}/big.ckpt"], 2),
        (["transfer", "--from", "{tmp}/width8.ckpt", "--widths", str(2**60), "--out",
          "{tmp}/t.ckpt"], 2),
        (["transfer", "--from", "{tmp}/width8.ckpt", "--widths", str(2**60), "--strategy",
          "function_based", "--out", "{tmp}/t.ckpt"], 2),
        (["transfer", "--from", "{tmp}/width8.ckpt", "--widths", str(2**62), "--strategy",
          "group", "--out", "{tmp}/t.ckpt"], 2),
        (["transfer", "--from", "{tmp}/width8.ckpt", "--widths", str(2**62), "--strategy",
          "duplicate", "--out", "{tmp}/t.ckpt"], 2),
        (["diagnose", "--ckpt", "{tmp}/huge.ckpt", "--report", "hist", "--out", "{tmp}/diag"], 2),
        (["diagnose", "--ckpt", "{tmp}/huge.ckpt", "--report", "corr", "--out", "{tmp}/diag"], 2),
        (["diagnose", "--ckpt", "{tmp}/huge.ckpt", "--report", "heatmap", "--weight", "w1",
          "--out", "{tmp}/diag"], 2),
        (["diagnose", "--ckpt", "{ckpt}", "--report", "heatmap", "--out", "{tmp}/file"], 2),
    ], ids=["transfer-zero-width", "transfer-duplicate-not-a-multiple", "reproduce-no-cifar",
            "reproduce-cifar-dir-missing",
            "heatmap-vector-weight", "hist-unknown-weight", "heatmap-two-ckpts", "corr-two-ckpts",
            "corr-weight",
            "transfer-out-is-directory",
            "train-out-is-file", "hist-no-matrix-weight", "reproduce-truncated-batch",
            "reproduce-directory-batch", "reproduce-bad-label", "reproduce-zero-seeds",
            "reproduce-negative-seeds", "reproduce-r2-out-of-range", "reproduce-r2-without-r1",
            "reproduce-negative-seed", "reproduce-regen-seed-past-64-bits", "transfer-r1-nan",
            "transfer-r2-out-of-range",
            "transfer-r2-nan", "train-negative-seed-flag",
            "init-seed-flag-too-big", "train-targets-narrower-than-output",
            "train-inputs-narrower-than-input-dim", "train-width-scale-overflows",
            "train-rate-overflows", "train-rate-underflows", "train-fragment",
            "init-fragment", "init-uniform-width-overflows", "diagnose-fragment",
            "transfer-fragment", "transfer-random-2**60", "transfer-function-based-2**60",
            "transfer-group-2**62", "transfer-duplicate-2**62", "hist-profile-overflows",
            "corr-profile-overflows", "heatmap-profile-overflows", "heatmap-out-is-file"])
    def test_exits_with_error_and_leaves_outputs_alone(self, argv, code, small_ckpt, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.delenv("MFGROW_CIFAR10_DIR", raising=False)
        cfg = synth_config(tmp_path)
        doc = json.loads(cfg.read_text(encoding="utf-8"))
        for name, dims in (("output-dim-3", {"output_dim": 3}), ("input-dim-2", {"input_dim": 2})):
            arch = {"builder": "mlp", "depth": 2, "widths": 4, **dims}
            (tmp_path / f"{name}.json").write_text(json.dumps({**doc, "arch": arch}),
                                                   encoding="utf-8")
        for name, opt in (("width-scale-overflow", {"lr_width_exponent": 1000.0}),
                          ("rate-overflow", {"lr": 1e308, "lr_width_exponent": 2.0}),
                          ("rate-underflow", {"lr_width_exponent": -1000.0})):
            arch = {"builder": "mlp", "depth": 2, "widths": 8}
            optimizer = {**doc["optimizer"], **opt}
            (tmp_path / f"{name}.json").write_text(
                json.dumps({**doc, "arch": arch, "optimizer": optimizer}), encoding="utf-8")
        # b - a of u's uniform overflows to inf.
        dists = {"u": {"kind": "uniform", "a": -1.7e308, "b": 1.7e308},
                 "v": {"kind": "gaussian", "b": 1.0}}
        (tmp_path / "uniform-overflow.json").write_text(
            json.dumps({**doc, "init": {"mode": "iid", "distributions": dists}}),
            encoding="utf-8")
        fragment = tmp_path / "fragment-arch.json"
        fragment.write_text(json.dumps(FRAGMENT_DOC), encoding="utf-8")
        (tmp_path / "fragment.json").write_text(
            json.dumps({**doc, "arch": {"file": str(fragment)}}), encoding="utf-8")
        write_fragment_checkpoint(tmp_path / "fragment.ckpt")
        (tmp_path / "taken").mkdir()
        (tmp_path / "file").write_text("not a directory", encoding="utf-8")
        save_checkpoint(zeros_network(build_mlp(2, 8)), tmp_path / "vectors.ckpt")
        # An index set of 2**60 or 2**62 int64s once ended in NumPy's "array
        # is too big" traceback, exit 1, from this width-8 source.
        width8 = build_mlp(3, 8)
        save_checkpoint(initialize(zeros_network(width8), nonzero_mean_default("MFP", width8),
                                   Rng(0)), tmp_path / "width8.ckpt")
        # Finite weights whose row and column sums overflow to inf.
        huge = zeros_network(width8)
        huge.store["w1"][:] = 1.7e308
        save_checkpoint(huge, tmp_path / "huge.ckpt")
        for cifar in ("truncated", "dir-batch", "bad-label", "good"):
            (tmp_path / cifar).mkdir()
            (tmp_path / cifar / "test_batch.bin").write_bytes(bytes(CIFAR_RECORD))
        (tmp_path / "truncated" / "data_batch_1.bin").write_bytes(bytes(CIFAR_RECORD + 5))
        (tmp_path / "dir-batch" / "data_batch_1.bin").mkdir()
        (tmp_path / "bad-label" / "data_batch_1.bin").write_bytes(
            bytes([12]) + bytes(CIFAR_RECORD - 1))
        (tmp_path / "good" / "data_batch_1.bin").write_bytes(bytes(CIFAR_RECORD))
        before = _tree(tmp_path)
        assert main([a.format(ckpt=small_ckpt, cfg=cfg, tmp=tmp_path) for a in argv]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert _tree(tmp_path) == before


class TestOutOfMemory:
    @pytest.mark.parametrize("command", ["init", "train", "transfer"])
    def test_exits_2_and_writes_nothing(self, command, small_ckpt, tmp_path, monkeypatch,
                                        capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")
        monkeypatch.setattr(cli, "zeros_network", exhausted)
        monkeypatch.setattr(cli, "transfer", exhausted)
        cfg = synth_config(tmp_path)
        argv = {"init": ["init", "--config", str(cfg)],
                "train": ["train", "--config", str(cfg)],
                "transfer": ["transfer", "--from", str(small_ckpt), "--widths", "40",
                             "--out", str(tmp_path / "big.ckpt")]}[command]
        before = _tree(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory: Unable to allocate 7.28 TiB\n"
        assert captured.out == ""
        assert _tree(tmp_path) == before

    def test_width_past_the_address_space_exits_2_before_allocating(self, tmp_path,
                                                                   monkeypatch, capsys):
        # w1 would hold 2**63 float64 entries: the arch rejects its byte size
        # when it builds the weight, so no store is ever allocated.
        calls = []
        monkeypatch.setattr(cli, "zeros_network", lambda *args: calls.append(args))
        cfg = synth_config(tmp_path, arch={"builder": "mlp", "depth": 3,
                                           "widths": [2, 4611686018427387904],
                                           "with_bias": False})
        before = _tree(tmp_path)
        assert main(["init", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: config value rejected: weight w1: shape "
                                "(4611686018427387904, 2) needs 73786976294838206464 bytes, "
                                "past the address space\n")
        assert captured.out == ""
        assert not calls
        assert _tree(tmp_path) == before


def _untie_residual(doc):
    doc["usages"] = [u for u in doc["usages"]
                     if not (u["weight"] in ("w1", "b1") and u["gamma"] == 3)]


def _fresh_w2_columns(doc):
    doc["gammas"].append({"id": 9, "width": 8, "role": "hidden"})
    next(u for u in doc["usages"] if u["weight"] == "w2" and u["axis"] == "col")["gamma"] = 9


def _mixed_roles(doc):
    doc["gammas"].append({"id": 9, "width": 8, "role": "data"})
    doc["usages"].append({"weight": "u", "axis": "row", "gamma": 9})


# Each of these once loaded with a guess, or as a gamma of 1, or ended in a
# traceback: an OverflowError (1e400), or an IndexError when training. The
# miswired ones (from "untied-residual" on) once built and trained a net that
# a transfer does not resample as one: a residual whose operands lie in two
# groups, a layer contracting a group its predecessor does not output, a
# weight in no layer or in two, a topology without layers, the removed
# "fragment" topology, and a group whose width is both hidden and data.
@pytest.mark.parametrize("command", ["gamma", "train"])
@pytest.mark.parametrize("edit, literal", [
    (lambda d: d.pop("gammas"), None),
    (lambda d: d["gammas"][0].pop("role"), None),
    (lambda d: d.pop("topology"), None),
    (lambda d: d["gammas"][0].update(width="N"), "1e400"),
    (lambda d: d["usages"][0].update(gamma="N"), "1.7"),
    (lambda d: d["activations"].pop(), None),
    (_untie_residual, None),
    (_fresh_w2_columns, None),
    (lambda d: d["layers"][0].__setitem__(1, None), None),
    (lambda d: d["layers"][2].__setitem__(1, "b1"), None),
    (lambda d: d.update(layers=[], activations=[]), None),
    (lambda d: d.update(topology="fragment"), None),
    (_mixed_roles, None),
], ids=["gamma-less", "role-less", "topology-less", "width-1e400", "gamma-1.7",
        "activation-short", "untied-residual", "fresh-w2-columns", "bu-in-no-slot",
        "b1-in-two-slots", "no-layers", "fragment-topology", "mixed-role-group"])
def test_hostile_arch_file_exits_2_and_writes_nothing(command, edit, literal, tmp_path, capsys):
    doc = json.loads(arch_to_json(build_mlp(4, 8, with_skip=True)))
    edit(doc)
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps(doc).replace('"N"', literal or '"N"'), encoding="utf-8")
    cfg = synth_config(tmp_path, arch={"file": str(arch)})
    argv = ["gamma", str(arch)] if command == "gamma" else ["train", "--config", str(cfg)]
    before = _tree(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert _tree(tmp_path) == before


# Config files and arch files share one check, so a non-integer in an integer
# key of either gets one message. A number beyond the float range is shown as
# it was written.
@pytest.mark.parametrize("literal, shown", [
    ("true", "true"), ("4.0", "4.0"), ("1e400", "1e400"), ("null", "null"), ('"4"', '"4"'),
], ids=["true", "4.0", "1e400", "null", "string"])
@pytest.mark.parametrize("file", ["config", "arch"])
def test_integer_key_message(file, literal, shown, tmp_path, capsys):
    if file == "config":
        path = synth_config(tmp_path, epochs="N")
        argv = ["init", "--config", str(path)]
    else:
        doc = json.loads(arch_to_json(build_mlp(2, 4)))
        doc["gammas"][0]["width"] = "N"
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["gamma", str(path)]
    path.write_text(path.read_text(encoding="utf-8").replace('"N"', literal), encoding="utf-8")
    assert main(argv) == 2
    assert capsys.readouterr().err.endswith(f"must be an integer, got {shown}\n")


# Python's json raises ValueError past 4,300 digits and RecursionError on
# deep nesting; both once ended a command in a traceback.
@pytest.mark.parametrize("command", ["gamma", "train"])
@pytest.mark.parametrize("value", ["9" * 5000, "[" * 100_000 + "]" * 100_000],
                         ids=["5000-digit-integer", "deep-nesting"])
def test_json_past_parser_limits_exits_2(command, value, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(f'{{"epochs": {value}}}', encoding="utf-8")
    argv = ["gamma", str(path)] if command == "gamma" else ["train", "--config", str(path)]
    assert main(argv) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.fixture(params=["not-utf8", "directory"])
def unreadable(request, tmp_path):
    path = tmp_path / "unreadable.json"
    if request.param == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"parametrization": "\xff"}')
    return path


def _header_byte(at, value):
    def edit(raw):
        raw[at:at + len(value)] = value
    return edit


def _arch_doc(edit):
    """A checkpoint edit that rewrites its arch JSON document, and its length."""
    def apply(raw):
        end = 21 + int.from_bytes(raw[17:21], "little")
        doc = json.loads(raw[21:end])
        edit(doc)
        text = json.dumps(doc).encode()
        raw[17:end] = struct.pack("<I", len(text)) + text
    return apply


# A checkpoint is the 21-byte header (magic, version, seed, parametrization
# code, arch JSON length), the arch JSON, the weight count, then per weight
# its name length and name, dtype code, ndim, dims and float64 payload.
def _ckpt_offsets(raw, net):
    at = 21 + int.from_bytes(raw[17:21], "little") + 4
    offsets = {}
    for w in net.arch.weights:
        head = at
        at += 2 + len(w.name) + 2 + 4 * len(w.shape)
        offsets[w.name] = (head, at)  # where its record and its payload start
        at += 8 * net.store[w.name].size
    return offsets


class TestRejectedFiles:
    """Each rejection branch of load_checkpoint and of the arch file, reached
    from a file: the library raises its MfgrowError subclass, and
    ``mfgrow transfer --from`` or ``mfgrow gamma`` exits 2 and writes
    nothing."""

    @pytest.mark.parametrize("edit, shrink, match", [
        (_header_byte(4, struct.pack("<I", 2)), None, "unsupported version 2"),
        (_header_byte(16, b"\x07"), None, "unknown parametrization code 7"),
        (_header_byte(16, b"\x00"), None, "parametrization byte disagrees with arch JSON"),
        # Cut after the header is read, past the reader's buffer: inside w1's
        # payload, and inside bv's dims.
        (None, lambda offsets, size: offsets["w1"][1] + 16000, "truncated at byte {w1}"),
        (None, lambda offsets, size: size - 10, "truncated at byte {bv_dims}"),
        # The embedded arch fails as the checkpoint, not as an arch file.
        (_header_byte(21, b"}"), None, "architecture file is not valid JSON"),
        (_arch_doc(lambda d: d.update(topology="fragment")), None, "unknown topology 'fragment'"),
        (_arch_doc(lambda d: d["weights"][2].update(shape=[2**62, 64])), None,
         "weight w1: shape (4611686018427387904, 64) needs"),
        (_arch_doc(lambda d: d.update(parametrization="NTK")), None,
         "unknown parametrization 'NTK'"),
    ], ids=["version", "parametrization-code", "parametrization-disagrees",
            "shrunk-in-a-payload", "shrunk-in-a-record", "arch-byte-broken", "arch-fragment",
            "arch-2**62-rows", "arch-parametrization"])
    def test_checkpoint(self, edit, shrink, match, tmp_path, monkeypatch, capsys):
        arch = build_mlp(3, 64, with_bias=True, parametrization="MFP")
        net = initialize(zeros_network(arch), nonzero_mean_default("MFP", arch), Rng(0))
        path = tmp_path / "src.ckpt"
        save_checkpoint(net, path)
        raw = bytearray(path.read_bytes())
        offsets = _ckpt_offsets(raw, net)
        assert offsets["bv"][1] + 8 == len(raw)
        if edit is not None:
            edit(raw)
        if shrink is not None:
            parse = data.arch_from_json

            def shrink_after_open(text):
                os.truncate(path, shrink(offsets, len(raw)))
                return parse(text)
            monkeypatch.setattr(data, "arch_from_json", shrink_after_open)
        match = match.format(w1=offsets["w1"][1], bv_dims=offsets["bv"][1] - 4)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=re.escape(match)) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")
        path.write_bytes(bytes(raw))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["transfer", "--from", str(path), "--widths", "32",
                     "--out", str(out / "t.ckpt")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ") and match in captured.err
        assert captured.out == ""
        assert _tree(out) == {}

    @pytest.mark.parametrize("edit, match", [
        (lambda d: d["gammas"][0].update(width=0), "gamma 1: width must be >= 1, got 0"),
        (lambda d: d["gammas"][0].update(role="visible"), "gamma 1: unknown role 'visible'"),
        (lambda d: d["weights"][0].update(kind="tensor"), "weight u: unknown kind 'tensor'"),
        (lambda d: d["weights"][0].update(shape=[4, 0]),
         r"weight u: dimensions must be >= 1, got \(4, 0\)"),
        (lambda d: d.update(parametrization="NTK"), "unknown parametrization 'NTK'"),
        (lambda d: d.update(topology="tree"), "unknown topology 'tree'"),
        (lambda d: d["weights"][1].update(name="u"), "weight names must be unique"),
        (lambda d: d["gammas"][1].update(id=1), "gamma ids must be unique"),
        (lambda d: next(u for u in d["usages"] if u["weight"] == "u").update(axis="diag"),
         "weight u: unknown axis 'diag'"),
    ], ids=["gamma-width-0", "unknown-role", "unknown-kind", "dimension-0",
            "unknown-parametrization", "unknown-topology", "duplicate-weight-name",
            "duplicate-gamma-id", "unknown-axis"])
    def test_arch_file(self, edit, match, tmp_path, capsys):
        doc = json.loads(arch_to_json(build_mlp(3, 4, with_bias=True, input_dim=2)))
        assert doc["weights"][0]["shape"] == [4, 2] and doc["gammas"][0]["width"] == 4
        edit(doc)
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ParameterError, match=match):
            arch_from_json(path.read_text(encoding="utf-8"))
        before = _tree(tmp_path)
        assert main(["gamma", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert _tree(tmp_path) == before


class TestParserReuse:
    """``main`` builds its parser once per process. Each parse must still
    start from the defaults: no value of one call reaches the next."""

    ARGVS = [
        ["gamma", "--mlp", "3", "--width", "5", "--bias", "--skip"],
        ["transfer", "--from", "a", "--widths", "40", "--strategy", "function_based",
         "--r1", "0.5", "--r2", "0.25", "--seed", "7", "--out", "b"],
        ["diagnose", "--ckpt", "a", "--ckpt", "b", "--report", "hist", "--weight", "w1"],
        ["reproduce", "twolayer_regen", "--seed", "3", "--r1", "0.1", "--out", "c"],
        ["gamma", "--mlp", "2"],
        ["transfer", "--from", "c", "--widths", "8", "--out", "d"],
        ["diagnose", "--ckpt", "c", "--report", "corr"],
        ["reproduce", "update_probe"],
        ["train", "--config", "x", "--seed", "1"],
        ["init", "--config", "y"],
    ]

    def test_shared_parser_matches_a_fresh_one(self):
        for argv in self.ARGVS:
            assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))

    def test_consecutive_mains_parse_independently(self, small_ckpt, tmp_path, capsys,
                                                    monkeypatch):
        assert main(["gamma", "--mlp", "3", "--width", "5", "--bias"]) == 0
        narrow = capsys.readouterr().out
        monkeypatch.setattr(cli, "build_parser", None)  # a second parser would fail
        argv = ["transfer", "--from", str(small_ckpt), "--widths", "30"]
        assert main([*argv, "--strategy", "function_based", "--r1", "0.1", "--r2", "0.5",
                     "--seed", "4", "--out", str(tmp_path / "a.ckpt")]) == 0
        first = json.loads(capsys.readouterr().out)
        assert (first["strategy"], first["r1"], first["r2"], first["seed"]) == (
            "function_based", 0.1, 0.5, 4)
        assert main([*argv, "--out", str(tmp_path / "b.ckpt")]) == 0
        second = json.loads(capsys.readouterr().out)
        assert (second["strategy"], second["r1"], second["r2"], second["seed"]) == (
            "random", 0.0, 0.0, 0)
        ckpts = ["--ckpt", str(tmp_path / "a.ckpt"), "--ckpt", str(tmp_path / "b.ckpt")]
        assert main(["diagnose", *ckpts, "--report", "hist", "--out", str(tmp_path / "h")]) == 0
        # Had the appended --ckpt list carried over, a heatmap would get three.
        assert main(["diagnose", "--ckpt", str(small_ckpt), "--report", "heatmap",
                     "--out", str(tmp_path / "m")]) == 0
        capsys.readouterr()
        assert main(["gamma", "--mlp", "3"]) == 0
        assert capsys.readouterr().out == format_partition(build_mlp(3, 8).partition) + "\n"
        assert format_partition(build_mlp(3, 5, with_bias=True).partition) + "\n" == narrow


class TestUnreadableFiles:
    def test_config_exits_2(self, unreadable, capsys):
        assert main(["init", "--config", str(unreadable), "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config file")

    def test_arch_file_exits_2(self, unreadable, tmp_path, capsys):
        cfg = synth_config(tmp_path, arch={"file": str(unreadable)})
        assert main(["init", "--config", str(cfg), "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read architecture file")

    def test_gamma_arch_exits_2(self, unreadable, capsys):
        assert main(["gamma", str(unreadable)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read architecture file")

    @pytest.mark.parametrize("argv", [
        ["diagnose", "--ckpt", "{ckpt}", "--report", "corr", "--out", "{out}"],
        ["transfer", "--from", "{ckpt}", "--widths", "30", "--out", "{out}/t.ckpt"],
    ], ids=["diagnose", "transfer"])
    def test_checkpoint_directory_exits_2(self, argv, tmp_path, capsys):
        ckpt = tmp_path / "dir.ckpt"
        ckpt.mkdir()
        args = [a.format(ckpt=ckpt, out=tmp_path / "out") for a in argv]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: cannot read checkpoint")

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        assert main(["diagnose", "--ckpt", str(tmp_path / "none.ckpt"), "--report", "corr",
                     "--out", str(tmp_path / "diag")]) == 2
        assert capsys.readouterr().err.startswith("error: checkpoint not found")


# ---------------------------------------------------------------------------
# Configs generated from cli._SCHEMA, one value mutated
# ---------------------------------------------------------------------------

# Values of each JSON type that a mutation swaps in: small, so that no
# mutation can ask for a large net.
_SWAPS = {
    str: st.text(max_size=4),
    type(None): st.none(),
    bool: st.booleans(),
    float: st.floats(),
    list: st.lists(st.integers(0, 8), max_size=3),
    dict: st.dictionaries(st.text(max_size=3), st.integers(0, 8), max_size=2),
}


def _declared(schema):
    """Each key of ``schema``, and of the sections its choices name, with the
    JSON types it accepts."""
    kinds = {}
    for key, (kind, _) in schema.items():
        if isinstance(kind, cli.Choice):
            kinds[key] = (str,)
            for section in kind.values():
                kinds.update(_declared(section))
        else:
            kinds[key] = tuple(dict if isinstance(k, dict) else get_origin(k) or k
                               for k in (kind if isinstance(kind, tuple) else (kind,)))
    return kinds


def _schema_keys(schema, prefix=""):
    """Every key path of ``schema``, choices expanded."""
    for key, (kind, _) in schema.items():
        yield prefix + key
        sections = (kind.values() if isinstance(kind, cli.Choice)
                    else [kind] if isinstance(kind, dict) else [])
        for section in sections:
            nested = prefix if isinstance(kind, cli.Choice) else f"{prefix}{key}."
            yield from _schema_keys(section, nested)


def _every_schema_key() -> set:
    return {*_schema_keys(cli._SCHEMA), *_schema_keys(cli._INIT, "init."),
            *_schema_keys(cli._DISTRIBUTION, "distribution.")}


def _maybe(draw, cfg, key, strategy):
    """Set ``cfg[key]`` from ``strategy``, or leave the key to its default."""
    if draw(st.booleans()):
        cfg[key] = draw(strategy)


@st.composite
def _distributions(draw):
    """A valid distribution object: a <= 0 <= b, whether written or not."""
    dist = {"kind": draw(st.sampled_from(["uniform", "gaussian", "constant"]))}
    _maybe(draw, dist, "a", st.floats(-1.0, 0.0))
    _maybe(draw, dist, "b", st.floats(0.0, 1.0))
    return dist


@st.composite
def _tiny_configs(draw, root):
    """A valid config for a small net (widths <= 8, depth 2-4, n <= 64,
    epochs <= 1). Keys with a small default are written or left to it; an
    architecture file goes under ``root``."""
    depth = draw(st.integers(2, 4))
    with_skip = depth == 4 and draw(st.booleans())
    widths = draw(st.integers(1, 8))
    if not with_skip and draw(st.booleans()):
        widths = draw(st.lists(st.integers(1, 8), min_size=depth - 1, max_size=depth - 1))
    mlp = {"depth": depth, "widths": widths}
    if with_skip or draw(st.booleans()):
        mlp["with_skip"] = with_skip
    _maybe(draw, mlp, "with_bias", st.booleans())
    _maybe(draw, mlp, "input_dim", st.just(1))  # the synthetic sets are 1-d
    _maybe(draw, mlp, "output_dim", st.just(1))
    _maybe(draw, mlp, "activation", st.sampled_from(["tanh", "relu", "identity"]))
    graph = build_mlp(**{"with_bias": True, **mlp})
    cfg = {"out_dir": str(root / "out")}
    _maybe(draw, cfg, "parametrization", st.sampled_from(["SP", "muP", "MFP"]))
    if draw(st.booleans()):
        path = root / "arch.json"
        path.write_text(arch_to_json(graph), encoding="utf-8")
        cfg["arch"] = {"file": str(path)}
        _maybe(draw, cfg["arch"], "builder", st.just("file"))
    else:
        cfg["arch"] = mlp
        _maybe(draw, cfg["arch"], "builder", st.just("mlp"))
    mode = draw(st.sampled_from([None, "default", "iid", "rc"]))
    if mode == "default":
        cfg["init"] = mode
    elif mode is not None:
        eligible = [w.name for w in graph.weights if mode == "rc" and rc_eligible(graph, w.name)]
        init = {"distributions": {w.name: draw(_distributions())
                                  for w in graph.weights if w.name not in eligible}}
        if mode == "rc" or draw(st.booleans()):
            init["mode"] = mode
        if mode == "rc":
            init["rc_pairs"] = {name: [draw(_distributions()), draw(_distributions())]
                                for name in eligible}
            form = st.sampled_from(["sum", "product"])
            _maybe(draw, init, "phi", form | st.fixed_dictionaries({n: form for n in eligible}))
        cfg["init"] = init
    # Deep identity nets diverge on the cubic at lr 0.01 (and at the default
    # 0.1), so a tiny lr is always written.
    cfg["optimizer"] = {"lr": draw(st.floats(0.0, 1e-4))}
    _maybe(draw, cfg["optimizer"], "kind", st.sampled_from(["sgd", "adam"]))
    _maybe(draw, cfg["optimizer"], "batch_size", st.integers(1, 64))
    _maybe(draw, cfg["optimizer"], "lr_width_exponent", st.floats(0.0, 1.0))
    _maybe(draw, cfg, "epochs", st.integers(0, 1))
    _maybe(draw, cfg, "seeds", st.lists(st.integers(0, 3), min_size=1, max_size=2))
    if draw(st.integers(0, 3)) == 0:
        cfg["dataset"] = {"kind": "cifar10", "dir": str(root / "no-cifar")}
    else:
        cfg["dataset"] = {"kind": draw(st.sampled_from(["sine", "cubic"])),
                          "n": draw(st.integers(1, 64))}
        _maybe(draw, cfg["dataset"], "test_n", st.integers(1, 16))
        _maybe(draw, cfg["dataset"], "noise_std", st.floats(0.0, 0.1))
    return cfg


def _containers(cfg):
    """Each object and list in ``cfg``. A schema section comes with the prefix
    that _schema_keys puts on its keys and the JSON types they accept; a
    list or a map of weight names comes with (None, None)."""
    yield cfg, "", _declared(cli._SCHEMA)
    for key in ("arch", "optimizer", "dataset"):
        if key in cfg:
            yield cfg[key], f"{key}.", _declared(cli._SCHEMA[key][0])
    for values in (cfg["arch"].get("widths"), cfg.get("seeds")):
        if isinstance(values, list):
            yield values, None, None
    init = cfg.get("init")
    if isinstance(init, dict):
        yield init, "init.", _declared(cli._INIT)
        pairs = list(init.get("rc_pairs", {}).values())
        for values in [init["distributions"], init.get("rc_pairs"), init.get("phi"), *pairs]:
            if isinstance(values, (dict, list)):
                yield values, None, None
        for dist in [*init["distributions"].values(), *(d for pair in pairs for d in pair)]:
            yield dist, "distribution.", _declared(cli._DISTRIBUTION)


def _written(cfg) -> set:
    """The key paths that ``cfg`` writes, named as _schema_keys names them."""
    return {prefix + key for container, prefix, _ in _containers(cfg) if prefix is not None
            for key in container}


@st.composite
def _mutated(draw, cfg):
    """``cfg`` with one value swapped for one of another JSON type, or with
    one unknown key added; and whether the change is to a schema section,
    which must then exit 2."""
    container, _, declared = draw(st.sampled_from(list(_containers(cfg))))
    if isinstance(container, dict) and (not container or draw(st.booleans())):
        key = draw(st.text(min_size=1, max_size=5).filter(
            lambda k: k not in container and k not in (declared or {})))
        container[key] = draw(st.one_of(*_SWAPS.values()))
        return cfg, declared is not None
    key = draw(st.sampled_from(list(container) if isinstance(container, dict)
                               else range(len(container))))
    kinds = declared[key] if declared else (type(container[key]),)
    container[key] = draw(st.one_of(*(s for t, s in _SWAPS.items() if t not in kinds)))
    return cfg, declared is not None


def _full_configs(root):
    """Two valid configs that write every key of the schema between them."""
    dist = {"kind": "uniform", "a": -1.0, "b": 1.0}
    mlp = synth_config(root, seeds=[0, 1], init={
        "mode": "rc", "distributions": {"u": dist, "v": dict(dist)},
        "rc_pairs": {"w1": [dict(dist), dict(dist)]}, "phi": "product"},
        arch={"builder": "mlp", "depth": 3, "widths": [4, 4], "with_bias": False,
              "with_skip": False, "input_dim": 1, "output_dim": 1, "activation": "relu"},
        optimizer={"kind": "adam", "lr": 0.01, "batch_size": 8, "lr_width_exponent": 0.5},
        dataset={"kind": "cubic", "n": 16, "test_n": 4, "noise_std": 0.1})
    mlp = json.loads(mlp.read_text(encoding="utf-8"))
    arch_file = root / "arch.json"
    arch_file.write_text(arch_to_json(build_mlp(2, 4)), encoding="utf-8")
    from_file = {"parametrization": "SP", "arch": {"builder": "file", "file": str(arch_file)},
                 "init": "default", "dataset": {"kind": "cifar10", "dir": str(root / "none")},
                 "out_dir": str(root / "out")}
    return [mlp, from_file]


class TestConfigFuzz:
    def test_every_key_rejects_every_other_json_type(self, tmp_path):
        configs = _full_configs(tmp_path)
        assert set().union(*map(_written, configs)) == _every_schema_key()
        examples = {str: "x", type(None): None, bool: True, float: 0.5, list: [1],
                    dict: {"k": 1}}
        path = tmp_path / "cfg.json"
        accepted = []
        for base in configs:
            path.write_text(json.dumps(base), encoding="utf-8")
            assert main(["init", "--config", str(path)]) == 0
            shutil.rmtree(tmp_path / "out")
            for i, (container, _, declared) in enumerate(_containers(base)):
                if declared is None:
                    continue
                changes = [("unknown-key", None)] + [
                    (key, value) for key in container
                    for t, value in examples.items() if t not in declared[key]]
                for key, value in changes:
                    cfg = copy.deepcopy(base)
                    list(_containers(cfg))[i][0][key] = value
                    path.write_text(json.dumps(cfg), encoding="utf-8")
                    if main(["init", "--config", str(path)]) != 2 or (tmp_path / "out").exists():
                        accepted.append((key, value))
        assert accepted == []

    def test_tiny_configs_run_and_write_every_schema_key(self):
        written = set()

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(st.data(), st.sampled_from(["init", "train"]))
        def run(data, command):
            with tempfile.TemporaryDirectory() as tmp:
                cfg = data.draw(_tiny_configs(Path(tmp)))
                path = Path(tmp) / "cfg.json"
                path.write_text(json.dumps(cfg), encoding="utf-8")
                cifar = command == "train" and cfg["dataset"]["kind"] == "cifar10"
                assert main([command, "--config", str(path)]) == (3 if cifar else 0)
                written.update(_written(cfg))

        run()
        assert written == _every_schema_key()

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from(["init", "train"]))
    def test_one_mutation_exits_cleanly_and_writes_nothing(self, data, command):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            cfg, in_section = data.draw(_mutated(data.draw(_tiny_configs(root))))
            path = root / "cfg.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            before = _tree(root)
            code = main([command, "--config", str(path)])
            assert code in (0, 2, 3)
            if in_section:  # a wrong JSON type or an unknown key
                assert code == 2
            if code != 0:
                assert _tree(root) == before
