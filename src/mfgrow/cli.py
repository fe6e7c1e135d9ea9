"""Command-line harness.

Subcommands: gamma, init, train, transfer, diagnose, sample, reproduce.
Exit codes: 0 success, 1 acceptance failure, 2 input error, 3 missing data.
The CIFAR-10 directory comes from configs/flags or MFGROW_CIFAR10_DIR;
nothing is ever fetched from the network.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import experiments
from .arch import arch_from_json, build_mlp, compute_partition, format_partition
from .data import load_checkpoint, load_cifar10, save_checkpoint, synth_regression
from .diagnostics import (
    correlation_matrix,
    heatmap_export,
    histogram_trajectory,
    histograms_to_csv,
    profile,
    write_gnuplot_script,
)
from .errors import ConfigError, MfgrowError, MissingDataError, StructureError
from .init import InitSpec, initialize, iid_spec, nonzero_mean_default, rc_spec
from .measure import (
    DuplicateStrategy,
    FunctionBasedStrategy,
    GroupStrategy,
    RandomStrategy,
    draw_indices,
    extract_measures,
)
from .net import OptimizerState, train, zeros_network
from .tensor import DistributionSpec, Rng
from .transfer import TransferPlan, transfer, uniform_plan

EXIT_OK = 0
EXIT_ACCEPTANCE = 1
EXIT_INPUT = 2
EXIT_MISSING_DATA = 3


# ---------------------------------------------------------------------------
# Experiment config
# ---------------------------------------------------------------------------

_TOP_KEYS = {"parametrization", "arch", "init", "optimizer", "epochs", "seeds",
             "dataset", "transfer", "out_dir"}
_ARCH_KEYS = {"file", "builder", "depth", "widths", "with_bias", "with_skip",
              "input_dim", "output_dim", "activation"}
_OPT_KEYS = {"kind", "lr", "batch_size", "lr_width_exponent"}
_DATASET_KEYS = {"kind", "dir", "n", "test_n", "noise_std"}
_INIT_KEYS = {"mode", "phi", "distributions", "rc_pairs"}


def _require_keys(doc: dict, allowed: set, what: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


_JSON_KINDS = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string"}


def _checked(value, kind: type, what: str):
    """``value`` if it is a JSON value of ``kind`` (int, float, bool or str),
    converted to ``kind``; an integer also counts as a number. Anything else,
    null and numeric strings included, raises ConfigError."""
    if isinstance(value, bool):
        ok = kind is bool
    elif kind is float:
        # Also rejects nan, inf and integers beyond the float range.
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{what} must be {_JSON_KINDS[kind]}, got {json.dumps(value)}")
    return kind(value)


def _read_text(path, error: type[MfgrowError], what: str) -> str:
    """The UTF-8 text of ``path``; a file that is missing, unreadable or not
    UTF-8 raises ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def load_config(path) -> dict:
    try:
        doc = json.loads(_read_text(path, ConfigError, "config file"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must hold a JSON object")
    _require_keys(doc, _TOP_KEYS, "config")
    for key, allowed in (("arch", _ARCH_KEYS), ("optimizer", _OPT_KEYS),
                         ("dataset", _DATASET_KEYS)):
        if key in doc:
            if not isinstance(doc[key], dict):
                raise ConfigError(f"config key {key!r} must be an object")
            _require_keys(doc[key], allowed, key)
    if isinstance(doc.get("init"), dict):
        _require_keys(doc["init"], _INIT_KEYS, "init")
    return doc


def _build_arch(cfg: dict):
    arch_cfg = cfg.get("arch")
    if not arch_cfg:
        raise ConfigError("config needs an 'arch' section")
    if "file" in arch_cfg:
        path = _checked(arch_cfg["file"], str, "config arch 'file'")
        graph = arch_from_json(_read_text(path, StructureError, "architecture file"))
        if "parametrization" in cfg:
            graph = graph.with_parametrization(cfg["parametrization"])
        return graph
    if arch_cfg.get("builder", "mlp") != "mlp":
        raise ConfigError(f"unknown arch builder {arch_cfg.get('builder')!r}")

    def get(key: str, default, kind: type):
        return _checked(arch_cfg.get(key, default), kind, f"config arch {key!r}")

    widths = arch_cfg.get("widths", 300)
    if isinstance(widths, list):
        widths = [_checked(w, int, "config arch 'widths' entry") for w in widths]
    else:
        widths = get("widths", 300, int)
    return build_mlp(
        get("depth", 3, int),
        widths,
        with_bias=get("with_bias", True, bool),
        with_skip=get("with_skip", False, bool),
        input_dim=get("input_dim", 1, int),
        output_dim=get("output_dim", 1, int),
        parametrization=cfg.get("parametrization", "MFP"),
        activation=arch_cfg.get("activation", "tanh"),
    )


def _parse_distribution(doc, where: str) -> DistributionSpec:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError(f"init {where}: a distribution is an object with a 'kind'")
    a = _checked(doc.get("a", 0.0), float, f"init {where}: distribution 'a'")
    b = _checked(doc.get("b", 0.0), float, f"init {where}: distribution 'b'")
    return DistributionSpec(doc["kind"], a, b)


def _init_section(init_cfg: dict, key: str) -> dict:
    section = init_cfg.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"init {key!r} must be an object")
    return section


def _build_init_spec(cfg: dict, arch) -> InitSpec:
    init_cfg = cfg.get("init", "default")
    if init_cfg == "default":
        return nonzero_mean_default(cfg.get("parametrization", arch.parametrization), arch)
    if not isinstance(init_cfg, dict):
        raise ConfigError('config key \'init\' must be "default" or an object')
    mode = init_cfg.get("mode", "iid")
    if mode not in ("iid", "rc"):
        raise ConfigError(f"unknown init mode {mode!r} (expected 'iid' or 'rc')")
    dists = {k: _parse_distribution(v, k)
             for k, v in _init_section(init_cfg, "distributions").items()}
    if mode == "iid":
        return iid_spec(dists)
    pairs = {}
    for k, v in _init_section(init_cfg, "rc_pairs").items():
        if not isinstance(v, list) or len(v) != 2:
            raise ConfigError(f"init rc_pairs {k!r} must be a [row, col] pair of distributions")
        pairs[k] = (_parse_distribution(v[0], f"{k} row"), _parse_distribution(v[1], f"{k} col"))
    phi = init_cfg.get("phi", "sum")
    if not isinstance(phi, (str, dict)):
        raise ConfigError("init 'phi' must be a form name or an object of them per weight")
    return rc_spec(pairs, dists, phi)


def _cifar10(directory=None):
    """The (train, test) splits loaded from ``directory``, else from
    MFGROW_CIFAR10_DIR."""
    path = directory or os.environ.get("MFGROW_CIFAR10_DIR")
    if path is None:
        raise MissingDataError(
            "No CIFAR-10 directory configured. Pass --cifar / dataset.dir or set "
            "MFGROW_CIFAR10_DIR to a folder holding the cifar-10-batches-bin "
            "files. No download is attempted."
        )
    return load_cifar10(path)


def _dataset(cfg: dict):
    """The config's dataset as a function of the seed giving (train, test).
    The section is read and checked here; CIFAR-10 is loaded once for all
    seeds, and a synthetic set is drawn from each seed."""
    ds = cfg.get("dataset")
    if not ds:
        raise ConfigError("config needs a 'dataset' section")
    kind = ds.get("kind")
    if kind == "cifar10":
        directory = ds.get("dir")
        if directory is not None:
            directory = _checked(directory, str, "config dataset 'dir'")
        splits = _cifar10(directory)
        return lambda seed: splits
    if kind in ("sine", "cubic"):
        n = _checked(ds.get("n", 1024), int, "config dataset 'n'")
        test_n = _checked(ds.get("test_n", max(1, n // 4)), int, "config dataset 'test_n'")
        noise = _checked(ds.get("noise_std", 0.0), float, "config dataset 'noise_std'")

        def draw(seed):
            rng = Rng(seed)
            return (synth_regression(kind, n, noise, rng),
                    synth_regression(kind, test_n, noise, rng, split="test"))
        return draw
    raise ConfigError(f"unknown dataset kind {kind!r}")


def _seeds(args, cfg: dict) -> list[int]:
    """``--seed`` alone if given, else the config's non-empty ``seeds`` list."""
    if args.seed is not None:
        return [args.seed]
    seeds = cfg.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(
            f"config 'seeds' must be a non-empty list of integers, got {json.dumps(seeds)}")
    return [_checked(seed, int, "config 'seeds' entry") for seed in seeds]


def _out_dir(args, cfg=None) -> Path:
    path = args.out or (cfg or {}).get("out_dir") or "out"
    out = Path(_checked(path, str, "config 'out_dir'"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gamma(args) -> int:
    if args.mlp is not None:
        graph = build_mlp(args.mlp, args.width, with_bias=args.bias, with_skip=args.skip)
    elif args.arch is not None:
        graph = arch_from_json(_read_text(args.arch, StructureError, "architecture file"))
    else:
        raise ConfigError("gamma needs an architecture file or --mlp DEPTH")
    print(format_partition(compute_partition(graph)))
    return EXIT_OK


def cmd_init(args) -> int:
    cfg = load_config(args.config)
    arch = _build_arch(cfg)
    seed = _seeds(args, cfg)[0]
    net = initialize(zeros_network(arch), _build_init_spec(cfg, arch), Rng(seed))
    out = _out_dir(args, cfg)
    path = out / f"init_seed{seed}.ckpt"
    save_checkpoint(net, path, seed=seed)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    arch = _build_arch(cfg)
    seeds = _seeds(args, cfg)
    opt_cfg = cfg.get("optimizer", {})
    epochs = _checked(cfg.get("epochs", 1), int, "config 'epochs'")
    lr = _checked(opt_cfg.get("lr", 0.1), float, "config optimizer 'lr'")
    lr_width_exponent = _checked(opt_cfg.get("lr_width_exponent", 0.0), float,
                                 "config optimizer 'lr_width_exponent'")
    batch_size = _checked(opt_cfg.get("batch_size", 64), int, "config optimizer 'batch_size'")
    init_spec = _build_init_spec(cfg, arch)
    dataset = _dataset(cfg)
    out = _out_dir(args, cfg)
    for seed in seeds:
        net = initialize(zeros_network(arch), init_spec, Rng(seed))
        train_data, test_data = dataset(seed)
        loss = "cross_entropy" if train_data.classification else "square"
        opt = OptimizerState.create(net, kind=opt_cfg.get("kind", "sgd"), lr=lr,
                                    lr_width_exponent=lr_width_exponent)
        log = train(net, train_data, opt, epochs, batch_size, Rng(seed),
                    test_data=test_data, loss=loss)
        log.write(out / f"train_seed{seed}.csv")
        save_checkpoint(net, out / f"trained_seed{seed}.ckpt", seed=seed)
        print(f"seed {seed}: final train_loss={log.final('train_loss'):.6g} "
              f"test_loss={log.final('test_loss'):.6g} test_acc={log.final('test_acc'):.4f}")
    return EXIT_OK


def _parse_strategy(name: str, n_groups: int, n_candidates: int, p_max: int):
    if name == "duplicate":
        return DuplicateStrategy()
    if name == "group":
        return GroupStrategy(n_groups)
    if name == "function_based":
        return FunctionBasedStrategy(n_candidates, p_max)
    return RandomStrategy()


def cmd_transfer(args) -> int:
    net = load_checkpoint(getattr(args, "from"))
    strategy = _parse_strategy(args.strategy, args.n_groups, args.n_candidates, args.p_max)
    plan = uniform_plan(
        net.arch, args.widths, strategy=strategy, r1=args.r1, r2=args.r2,
        noise_mode=args.noise,
    )
    seed = args.seed if args.seed is not None else 0
    grown = transfer(net, plan, Rng(seed))
    save_checkpoint(grown, args.out_ckpt, seed=seed)
    print(f"wrote {args.out_ckpt} (widths -> {args.widths})")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    nets = [load_checkpoint(p) for p in args.ckpt]
    net = nets[0]
    # Each report is computed and its weight checked before the output
    # directory is made.
    if args.report == "corr":
        profiles, names = [], []
        for w in net.arch.weights:
            if w.kind == "matrix":
                profiles += [profile(net, w.name, "row"), profile(net, w.name, "col")]
                names += [f"{w.name}.R", f"{w.name}.C"]
            else:
                profiles.append(profile(net, w.name, "row"))
                names.append(w.name)
        report = correlation_matrix(profiles, names)
        path = _out_dir(args) / "correlations.csv"
        path.write_text(report.to_csv(), encoding="utf-8")
        print(f"wrote {path}")
        return EXIT_OK
    weight = args.weight or next((w.name for w in net.arch.weights if w.kind == "matrix"), None)
    if weight is None:
        raise ConfigError("the checkpoint has no matrix weight; pass --weight")
    if args.report == "hist":
        edges, counts = histogram_trajectory(nets, weight)
        path = _out_dir(args) / f"{weight}_hist.csv"
        path.write_text(histograms_to_csv(edges, counts), encoding="utf-8")
    else:
        if net.arch.weight(weight).kind != "matrix":
            raise ConfigError(f"heatmap needs a matrix weight, got {weight!r}")
        out = _out_dir(args)
        path = out / f"{weight}.grid"
        heatmap_export(net, weight, args.normalize, path=path)
        write_gnuplot_script(path, out / f"{weight}.gp")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sample(args) -> int:
    net = load_checkpoint(args.ckpt)
    measures = extract_measures(net)
    if not 0 <= args.group < len(measures):
        raise ConfigError(f"group must be in [0, {len(measures)}), got {args.group}")
    m = measures[args.group]
    if args.target is not None:
        strategy = _parse_strategy(args.strategy, args.n_groups, args.n_candidates, args.p_max)
        idx = draw_indices(m, args.target, strategy, args.r2, Rng(args.seed or 0).generator())
    out = _out_dir(args)
    measure_path = out / f"group{args.group}_measure.csv"
    measure_path.write_text(m.to_csv(), encoding="utf-8")
    if args.target is None:
        print(f"wrote {measure_path}")
        return EXIT_OK
    idx_path = out / f"group{args.group}_indices.csv"
    idx_path.write_text(
        "position,source_index\n"
        + "\n".join(f"{i},{v}" for i, v in enumerate(idx)) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {measure_path} and {idx_path}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    name = args.name
    # Every flag and the CIFAR-10 contents are checked before _out_dir.
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    seed = args.seed or 0
    Rng(seed)
    if name == "twolayer_regen" and seed + 2 >= 2**64:
        raise ConfigError(f"twolayer_regen also seeds with --seed + 1 and + 2, so --seed "
                          f"must be below 2**64 - 2, got {seed}")
    rates = {}
    if args.r1 is not None:
        plan = TransferPlan(r1=args.r1, r2=args.r2 or 0.0)
        rates = {"rates": ((plan.r1, plan.r2),)}
    elif args.r2 is not None:
        raise ConfigError("--r2 needs --r1")
    splits = () if name in ("twolayer_regen", "update_probe") else _cifar10(args.cifar)
    out = _out_dir(args)
    seeds = tuple(range(args.seeds))
    if name == "twolayer_regen":
        result = experiments.twolayer_regen(seed=seed, out_dir=out)
    elif name == "update_probe":
        result = experiments.update_probe(out_dir=out)
    elif name == "table1":
        result = experiments.table1(*splits, seeds=seeds, out_dir=out)
    elif name == "fig1":
        result = experiments.fig1_heatmaps(*splits, seed=seed, out_dir=out)
    elif name == "fig2_grow":
        result = experiments.fig2_grow(*splits, seeds=seeds, out_dir=out, **rates)
    elif name == "fig2_prune":
        result = experiments.fig2_prune(*splits, seeds=seeds, out_dir=out, **rates)
    else:
        result = experiments.accuracy_experiment(*splits, seeds=seeds, out_dir=out)
    print(result["summary"])
    return EXIT_OK if result["passed"] else EXIT_ACCEPTANCE


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfgrow",
        description="Train, transfer, and diagnose dense nets under SP/muP/MFP.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="print the index-group partition of an architecture")
    p.add_argument("arch", nargs="?", help="architecture JSON file")
    p.add_argument("--mlp", type=int, help="build a depth-D chain instead of reading a file")
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--skip", action="store_true")
    p.add_argument("--bias", action="store_true")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("init", help="initialize a network and write a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("train", help="train per config; writes checkpoints and CSV logs")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("transfer", help="zero-shot transfer a checkpoint to new widths")
    p.add_argument("--from", required=True)
    p.add_argument("--widths", type=int, required=True)
    p.add_argument("--strategy", default="random",
                   choices=["random", "duplicate", "group", "function_based"])
    p.add_argument("--r1", type=float, default=0.0)
    p.add_argument("--r2", type=float, default=0.0)
    p.add_argument("--noise", default="perturb", choices=["perturb", "literal"])
    p.add_argument("--n-groups", type=int, default=4)
    p.add_argument("--n-candidates", type=int, default=64)
    p.add_argument("--p-max", type=int, default=4)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="out_ckpt", required=True)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("diagnose", help="correlation/heatmap/histogram reports")
    p.add_argument("--ckpt", action="append", required=True)
    p.add_argument("--report", required=True, choices=["corr", "heatmap", "hist"])
    p.add_argument("--weight")
    p.add_argument("--normalize", default="minmax", choices=["minmax", "zscore"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("sample", help="export a group measure and draw indices")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--group", type=int, default=0)
    p.add_argument("--target", type=int)
    p.add_argument("--strategy", default="random",
                   choices=["random", "group", "function_based"])
    p.add_argument("--r2", type=float, default=0.0)
    p.add_argument("--n-groups", type=int, default=4)
    p.add_argument("--n-candidates", type=int, default=64)
    p.add_argument("--p-max", type=int, default=4)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("reproduce", help="run a scripted experiment with pass/fail summary")
    p.add_argument("name", choices=sorted(experiments.REPRODUCIBLE))
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--seed", type=int)
    p.add_argument("--r1", type=float)
    p.add_argument("--r2", type=float, help="needs --r1 (default 0)")
    p.add_argument("--cifar", help="CIFAR-10 directory (else MFGROW_CIFAR10_DIR)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except MissingDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_DATA
    except MfgrowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
