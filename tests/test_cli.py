import json

import numpy as np
import pytest

from mfgrow import cli
from mfgrow.arch import arch_to_json, build_mlp, build_skip_block
from mfgrow.cli import main
from mfgrow.data import CIFAR_RECORD, load_checkpoint, load_cifar10, save_checkpoint
from mfgrow.init import initialize, nonzero_mean_default
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
            "--noise", "perturb", "--seed", "7", "--out", str(out_ckpt),
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
        xs = Rng(1).generator().normal(size=(50, 1))
        assert np.allclose(forward_batch(dup, xs), forward_batch(src, xs), atol=1e-12)

    def test_fragment_without_layers_exits_2(self, tmp_path, capsys):
        src = tmp_path / "fragment.ckpt"
        save_checkpoint(zeros_network(build_skip_block(8)), src)
        rc = main(["transfer", "--from", str(src), "--widths", "16",
                   "--out", str(tmp_path / "big.ckpt")])
        assert rc == 2
        assert "runnable topology" in capsys.readouterr().err

    @pytest.mark.parametrize("p_max", ["0", "-3"])
    def test_nonpositive_p_max_exits_2(self, small_ckpt, tmp_path, capsys, p_max):
        out_ckpt = tmp_path / "big.ckpt"
        rc = main(["transfer", "--from", str(small_ckpt), "--widths", "40",
                   "--strategy", "function_based", "--p-max", p_max,
                   "--out", str(out_ckpt)])
        assert rc == 2
        assert "p_max" in capsys.readouterr().err
        assert not out_ckpt.exists()


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


class TestSampleCli:
    def test_measure_and_indices(self, small_ckpt, tmp_path):
        out = tmp_path / "samp"
        rc = main(["sample", "--ckpt", str(small_ckpt), "--group", "1",
                   "--target", "50", "--strategy", "function_based",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert (out / "group1_measure.csv").exists()
        idx = (out / "group1_indices.csv").read_text().splitlines()
        assert len(idx) == 51

    def test_zero_target_exits_2(self, small_ckpt, tmp_path, capsys):
        out = tmp_path / "samp"
        rc = main(["sample", "--ckpt", str(small_ckpt), "--group", "1",
                   "--target", "0", "--out", str(out)])
        assert rc == 2
        assert "target must be >= 1" in capsys.readouterr().err
        assert not (out / "group1_indices.csv").exists()

    def test_bad_group_exits_2(self, small_ckpt, tmp_path):
        assert main(["sample", "--ckpt", str(small_ckpt), "--group", "9",
                     "--out", str(tmp_path / "x")]) == 2


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

    def test_init_writes_checkpoint(self, tmp_path):
        cfg = synth_config(tmp_path)
        assert main(["init", "--config", str(cfg), "--seed", "4"]) == 0
        ckpt = tmp_path / "out" / "init_seed4.ckpt"
        assert ckpt.exists()
        net = load_checkpoint(ckpt)
        assert net.meta["seed"] == 4


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
    ], ids=["no-kind", "string-a", "list-b", "one-element-pair", "pair-not-list",
            "phi-list", "distributions-list"])
    def test_malformed_entry_exits_2(self, tmp_path, capsys, entry):
        cfg = _init_config(tmp_path, **entry)
        assert main(["init", "--config", str(cfg), "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: init")


class TestConfigValues:
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
    ], ids=["depth-string", "widths-string", "widths-entry-string", "input-dim-null",
            "with-skip-string", "with-bias-int", "depth-float", "depth-bool", "file-int",
            "epochs-string", "lr-string", "lr-nan", "batch-size-null", "seeds-int",
            "seeds-entry-string", "seeds-empty", "n-string", "out-dir-int"])
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
        (["sample", "--ckpt", "{ckpt}", "--group", "1", "--target", "0", "--out", "{tmp}/samp"], 2),
        (["reproduce", "table1", "--out", "{tmp}/rep"], 3),
        (["diagnose", "--ckpt", "{ckpt}", "--report", "heatmap", "--weight", "u",
          "--out", "{tmp}/diag"], 2),
        (["diagnose", "--ckpt", "{ckpt}", "--report", "hist", "--weight", "nope",
          "--out", "{tmp}/diag"], 2),
        (["transfer", "--from", "{ckpt}", "--widths", "40", "--out", "{tmp}/taken"], 2),
        (["train", "--config", "{cfg}", "--out", "{tmp}/file"], 2),
        (["diagnose", "--ckpt", "{tmp}/vectors.ckpt", "--report", "hist", "--out", "{tmp}/diag"], 2),
    ], ids=["sample-zero-target", "reproduce-no-cifar", "heatmap-vector-weight",
            "hist-unknown-weight", "transfer-out-is-directory", "train-out-is-file",
            "hist-no-matrix-weight"])
    def test_exits_with_error_and_leaves_outputs_alone(self, argv, code, small_ckpt, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.delenv("MFGROW_CIFAR10_DIR", raising=False)
        cfg = synth_config(tmp_path)
        (tmp_path / "taken").mkdir()
        (tmp_path / "file").write_text("not a directory", encoding="utf-8")
        save_checkpoint(zeros_network(build_mlp(2, 8)), tmp_path / "vectors.ckpt")
        before = _tree(tmp_path)
        assert main([a.format(ckpt=small_ckpt, cfg=cfg, tmp=tmp_path) for a in argv]) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert _tree(tmp_path) == before


@pytest.fixture(params=["not-utf8", "directory"])
def unreadable(request, tmp_path):
    path = tmp_path / "unreadable.json"
    if request.param == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"parametrization": "\xff"}')
    return path


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
        ["sample", "--ckpt", "{ckpt}", "--target", "5", "--out", "{out}"],
    ], ids=["diagnose", "transfer", "sample"])
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
