"""Command-line harness.

Subcommands: gamma, init, train, transfer, diagnose, reproduce.
``transfer`` prints one JSON report of its draw: for each hidden group it
resized, the source ``indices`` it gathered (``transfer.index_sets``).
Exit codes: 0 success, 1 acceptance failure, 2 input error, 3 missing data.
The CIFAR-10 directory comes from configs/flags or MFGROW_CIFAR10_DIR;
nothing is ever fetched from the network.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .arch import (REQUIRED, Choice, arch_from_json, build_mlp, checked_object, format_partition,
                   read_json)
from .data import load_checkpoint, load_cifar10, save_checkpoint, synth_regression
from .diagnostics import (correlation_matrix, heatmap_export, histogram_trajectory,
                          histograms_to_csv, profile, write_gnuplot_script)
from .errors import ConfigError, MfgrowError, MissingDataError, ParameterError, StructureError
from .init import InitSpec, initialize, iid_spec, nonzero_mean_default, rc_spec
from .measure import STRATEGIES
from .net import OptimizerState, check_data, check_schedule, train, zeros_network
from .tensor import DistributionSpec, Rng
from .transfer import TransferPlan, transfer, uniform_plan

EXIT_OK = 0
EXIT_ACCEPTANCE = 1
EXIT_INPUT = 2
EXIT_MISSING_DATA = 3


# ---------------------------------------------------------------------------
# Experiment config
# ---------------------------------------------------------------------------

_MLP = {"depth": (int, 3), "widths": ((int, list[int]), 300), "with_bias": (bool, True),
        "with_skip": (bool, False), "input_dim": (int, 1), "output_dim": (int, 1),
        "activation": (str, "tanh")}
_SYNTHETIC = {"n": (int, 1024), "test_n": (int, lambda ds: max(1, ds["n"] // 4)),
              "noise_std": (float, 0.0)}

# Every config key: its JSON type and its default, in the form that
# arch.checked_object reads. Ranges are left to the library code each value
# reaches.
_SCHEMA = {
    # null keeps the architecture's own: the file's, else build_mlp's MFP.
    "parametrization": (str, None),
    # An architecture file, or build_mlp's arguments.
    "arch": ({"builder": (Choice(file={"file": (str, REQUIRED)}, mlp=_MLP),
                          lambda arch: "file" if "file" in arch else "mlp")}, REQUIRED),
    "init": ((str, dict), "default"),  # "default", or an _INIT section
    "optimizer": ({"kind": (str, "sgd"), "lr": (float, 0.1), "batch_size": (int, 64),
                   "lr_width_exponent": (float, 0.0)}, {}),
    "epochs": (int, 1),
    "seeds": (list[int], [0]),
    "dataset": ({"kind": (Choice(cifar10={"dir": (str, None)}, sine=_SYNTHETIC,
                                 cubic=_SYNTHETIC), REQUIRED)}, REQUIRED),
    "out_dir": (str, "out"),
}
# "distributions" and "rc_pairs" map weight names to _DISTRIBUTION objects
# and to [row, col] pairs of them; "phi" is a form name or a map to them.
_RC = {"rc_pairs": (dict, {}), "phi": ((str, dict), "sum")}
_INIT = {"mode": (Choice(iid={}, rc=_RC), "iid"), "distributions": (dict, {})}
_DISTRIBUTION = {"kind": (str, REQUIRED), "a": (float, 0.0), "b": (float, 0.0)}


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
    """The config at ``path``, checked against _SCHEMA with defaults filled in."""
    doc = read_json(_read_text(path, ConfigError, "config file"), "config", ConfigError)
    cfg = checked_object(doc, _SCHEMA, "config", ConfigError)
    if cfg["init"] != "default":
        cfg["init"] = checked_object(cfg["init"], _INIT, "init", ConfigError)
    return cfg


def _build_arch(cfg: dict):
    arch = cfg["arch"]
    if arch["builder"] == "file":
        graph = arch_from_json(_read_text(arch["file"], StructureError, "architecture file"))
    else:
        graph = build_mlp(**{key: arch[key] for key in _MLP})
    if cfg["parametrization"] is not None:
        graph = graph.with_parametrization(cfg["parametrization"])
    return graph


def _build_init_spec(init, arch) -> InitSpec:
    def distribution(doc, where: str) -> DistributionSpec:
        return DistributionSpec(**checked_object(doc, _DISTRIBUTION, f"init {where}", ConfigError))

    if init == "default":
        return nonzero_mean_default(arch.parametrization, arch)
    dists = {k: distribution(v, k) for k, v in init["distributions"].items()}
    if init["mode"] == "iid":
        return iid_spec(dists)
    pairs = {}
    for k, v in init["rc_pairs"].items():
        if not isinstance(v, list) or len(v) != 2:
            raise ConfigError(f"init rc_pairs {k!r} must be a [row, col] pair of distributions")
        pairs[k] = (distribution(v[0], f"{k} row"), distribution(v[1], f"{k} col"))
    return rc_spec(pairs, dists, init["phi"])


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


def _dataset(ds: dict):
    """The dataset section as a function of the seed giving (train, test):
    CIFAR-10 is loaded here, once for all seeds, a synthetic set drawn per seed."""
    if ds["kind"] == "cifar10":
        splits = _cifar10(ds["dir"])
        return lambda seed: splits

    def draw(seed):
        rng = Rng(seed)
        return (synth_regression(ds["kind"], ds["n"], ds["noise_std"], rng),
                synth_regression(ds["kind"], ds["test_n"], ds["noise_std"], rng, split="test"))
    return draw


def _seeds(args, cfg: dict) -> list[int]:
    """``--seed`` alone if given, else the config's non-empty ``seeds`` list;
    Rng checks the range of each."""
    seeds = [args.seed] if args.seed is not None else cfg["seeds"]
    if not seeds:
        raise ConfigError("config 'seeds' must be a non-empty list of integers, got []")
    return [Rng(seed).seed for seed in seeds]


def _refuse(args, flags, command: str) -> None:
    """ConfigError for the first of ``flags`` given: ``command`` does not read it."""
    for flag in flags:
        if getattr(args, flag) is not None and getattr(args, flag) is not False:
            raise ConfigError(f"{command} takes no --{flag}")


def _out_dir(args, path=_SCHEMA["out_dir"][1]) -> Path:
    """``--out`` if given, else ``path``, made if missing."""
    out = Path(args.out or path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gamma(args) -> int:
    if args.arch is not None:
        _refuse(args, ("mlp", "width", "skip", "bias"), "gamma with an architecture file")
        graph = arch_from_json(_read_text(args.arch, StructureError, "architecture file"))
    elif args.mlp is not None:
        graph = build_mlp(args.mlp, 8 if args.width is None else args.width,
                          with_bias=args.bias, with_skip=args.skip)
    else:
        raise ConfigError("gamma needs an architecture file or --mlp DEPTH")
    print(format_partition(graph.partition))
    return EXIT_OK


def cmd_init(args) -> int:
    cfg = load_config(args.config)
    try:
        seed = _seeds(args, cfg)[0]
        arch = _build_arch(cfg)
        net = initialize(zeros_network(arch), _build_init_spec(cfg["init"], arch), Rng(seed))
    except ParameterError as exc:  # a config value that library code rejects
        raise ConfigError(f"config value rejected: {exc}") from None
    out = _out_dir(args, cfg["out_dir"])
    path = out / f"init_seed{seed}.ckpt"
    save_checkpoint(net, path, seed=seed)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    opt_cfg = cfg["optimizer"]

    def start(seed):
        """The seed's network, its optimizer and its (train, test) data."""
        net = initialize(zeros_network(arch), init_spec, Rng(seed))
        opt = OptimizerState.create(net, kind=opt_cfg["kind"], lr=opt_cfg["lr"],
                                    lr_width_exponent=opt_cfg["lr_width_exponent"])
        return net, opt, dataset(seed)

    # Every value is checked, by library code where it can be, before _out_dir.
    try:
        seeds = _seeds(args, cfg)
        arch = _build_arch(cfg)
        init_spec = _build_init_spec(cfg["init"], arch)
        dataset = _dataset(cfg["dataset"])
        check_schedule(cfg["epochs"], opt_cfg["batch_size"])
        ready = [start(seeds[0])]
        net, _, splits = ready[0]
        loss = "cross_entropy" if splits[0].classification else "square"
        for split in splits:  # every seed's splits have the same shapes
            check_data(net, split, loss)
    except ParameterError as exc:
        raise ConfigError(f"config value rejected: {exc}") from None
    out = _out_dir(args, cfg["out_dir"])
    for seed in seeds:
        net, opt, (train_data, test_data) = ready.pop() if ready else start(seed)
        log = train(net, train_data, opt, cfg["epochs"], opt_cfg["batch_size"], Rng(seed),
                    test_data=test_data, loss=loss)
        log.write(out / f"train_seed{seed}.csv")
        save_checkpoint(net, out / f"trained_seed{seed}.ckpt", seed=seed)
        print(f"seed {seed}: final train_loss={log.final('train_loss'):.6g} "
              f"test_loss={log.final('test_loss'):.6g} test_acc={log.final('test_acc'):.4f}")
    return EXIT_OK


def cmd_transfer(args) -> int:
    net = load_checkpoint(getattr(args, "from"))
    plan = uniform_plan(net.arch, args.widths, strategy=args.strategy, r1=args.r1, r2=args.r2)
    grown, sets = transfer(net, plan, Rng(args.seed))
    save_checkpoint(grown, args.out_ckpt, seed=args.seed)
    groups = []
    for gi, idx in sets.items():
        counts = np.unique(idx, return_counts=True)[1]
        groups.append({"group": gi, "width": net.arch.partition.widths[gi], "target": len(idx),
                       "unique": len(counts), "max_multiplicity": int(counts.max()),
                       "indices": idx.tolist()})
    print(json.dumps({"checkpoint": str(args.out_ckpt), "seed": args.seed,
                      "strategy": plan.strategy, "r1": plan.r1, "r2": plan.r2, "groups": groups}))
    return EXIT_OK


def cmd_diagnose(args) -> int:
    if args.report != "hist" and len(args.ckpt) > 1:
        raise ConfigError(f"--report {args.report} takes one --ckpt, got {len(args.ckpt)}")
    nets = [load_checkpoint(p) for p in args.ckpt]
    net = nets[0]
    # Each report is computed and its weight checked before the output
    # directory is made.
    if args.report == "corr":
        _refuse(args, ("weight",), "diagnose --report corr")
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
        heatmap_export(net, weight, path=path)
        write_gnuplot_script(path, out / f"{weight}.gp")
    print(f"wrote {path}")
    return EXIT_OK


# Each reproduce flag and the experiment parameter it sets: a run reads the
# flags whose parameter its function in experiments.REPRODUCIBLE names.
_REPRODUCE_FLAGS = {"seed": "seed", "seeds": "seeds", "r1": "rates", "r2": "rates",
                    "cifar": "train_data"}


def cmd_reproduce(args) -> int:
    run = experiments.REPRODUCIBLE[args.name]
    takes = inspect.signature(run).parameters
    # Every flag and the CIFAR-10 contents are checked before _out_dir.
    _refuse(args, [f for f, param in _REPRODUCE_FLAGS.items() if param not in takes],
            f"reproduce {args.name}")
    kwargs = {} if args.seed is None else {"seed": Rng(args.seed).seed}
    if "seeds" in takes:
        count = 3 if args.seeds is None else args.seeds
        if count < 1:
            raise ConfigError(f"--seeds must be >= 1, got {count}")
        kwargs["seeds"] = tuple(range(count))
    if args.r1 is not None:
        plan = TransferPlan(r1=args.r1, r2=args.r2 or 0.0)
        kwargs["rates"] = ((plan.r1, plan.r2),)
    elif args.r2 is not None:
        raise ConfigError("--r2 needs --r1")
    if "train_data" in takes:
        kwargs["train_data"], kwargs["test_data"] = _cifar10(args.cifar)
    result = run(**kwargs, out_dir=_out_dir(args))
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
    p.add_argument("--width", type=int, help="with --mlp (default 8)")
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
    p.add_argument("--strategy", default="random", choices=STRATEGIES)
    p.add_argument("--r1", type=float, default=0.0)
    p.add_argument("--r2", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="out_ckpt", required=True)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("diagnose", help="correlation/heatmap/histogram reports")
    p.add_argument("--ckpt", action="append", required=True)
    p.add_argument("--report", required=True, choices=["corr", "heatmap", "hist"])
    p.add_argument("--weight")
    p.add_argument("--out")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("reproduce", help="run a scripted experiment with pass/fail summary")
    p.add_argument("name", choices=sorted(experiments.REPRODUCIBLE))
    p.add_argument("--seeds", type=int, help="seeds 0 .. N-1 (default 3)")
    p.add_argument("--seed", type=int)
    p.add_argument("--r1", type=float)
    p.add_argument("--r2", type=float, help="needs --r1 (default 0)")
    p.add_argument("--cifar", help="CIFAR-10 directory (else MFGROW_CIFAR10_DIR)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reproduce)

    return parser


# One parser per process; each parse fills a fresh namespace.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
    except MemoryError as exc:  # an allocation too large for this host
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
