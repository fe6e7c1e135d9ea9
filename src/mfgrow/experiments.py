"""Scripted desk-scale experiment runs behind `mfgrow reproduce`.

Each function returns a result dict with a ``passed`` flag so the CLI can
map outcomes to exit codes; CSV artifacts land in ``out_dir`` when one is
given, and fig1's grids, its only product, always do. The CIFAR-10 runs take
the loaded train and test splits. A run's parameters say which flags
`mfgrow reproduce` reads for it: ``seed``, ``seeds``, ``rates`` and
``train_data`` (with ``--cifar``).
"""

from __future__ import annotations

import statistics
from pathlib import Path

from .arch import PARAMETRIZATIONS, build_mlp
from .data import synth_regression
from .diagnostics import four_pair_report, heatmap_export, update_scaling_probe
from .init import initialize, nonzero_mean_default
from .net import DEFAULT_LR_EXPONENT, OptimizerState, evaluate, train, zeros_network
from .tensor import Rng
from .transfer import transfer, uniform_plan

# One base rate, rescaled with width by net.DEFAULT_LR_EXPONENT.
DEFAULT_LR = 0.1


def _write(out_dir, name: str, text: str) -> None:
    if out_dir is None:
        return
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text, encoding="utf-8")


def _cifar_net(param, width, seed, train_data):
    """The 3-layer CIFAR net (input -> width -> width -> 10), initialized."""
    arch = build_mlp(3, width, with_bias=True, input_dim=train_data.inputs.shape[1],
                     output_dim=10, parametrization=param)
    return initialize(zeros_network(arch), nonzero_mean_default(param, arch), Rng(seed))


def _fit(net, epochs, seed, train_data, test_data):
    """SGD at the scripted rates, batch 64, cross-entropy; trains ``net`` in place."""
    opt = OptimizerState.create(
        net, lr=DEFAULT_LR, lr_width_exponent=DEFAULT_LR_EXPONENT[net.parametrization]
    )
    return train(net, train_data, opt, epochs, 64, Rng(seed),
                 test_data=test_data, loss="cross_entropy")


def accuracy_experiment(train_data, test_data, width=300, epochs=10, seeds=(0, 1, 2),
                        out_dir=None) -> dict:
    """Test accuracy of the 3-layer net under all three parametrizations."""
    rows = ["parametrization,seed,test_acc"]
    medians = {}
    for param in PARAMETRIZATIONS:
        accs = []
        for seed in seeds:
            net = _cifar_net(param, width, seed, train_data)
            acc = _fit(net, epochs, seed, train_data, test_data).final("test_acc")
            accs.append(acc)
            rows.append(f"{param},{seed},{acc:.4f}")
        medians[param] = statistics.median(accs)
    passed = all(m >= _ACCURACY_THRESHOLD for m in medians.values())
    summary = "\n".join(
        [f"{p}: median_acc={medians[p]:.4f} threshold={_ACCURACY_THRESHOLD} "
         f"{'PASS' if medians[p] >= _ACCURACY_THRESHOLD else 'FAIL'}" for p in PARAMETRIZATIONS]
    )
    _write(out_dir, "accuracy.csv", "\n".join(rows) + "\n")
    _write(out_dir, "accuracy_summary.txt", summary + "\n")
    return {"medians": medians, "passed": passed, "summary": summary}


def table1(train_data, test_data, width=1000, epochs=10, seeds=(0, 1, 2),
           out_dir=None) -> dict:
    """Cross-layer correlation table at init and after training for the
    three parametrizations; thresholds are the qualitative acceptance bands."""
    per_param: dict[str, dict] = {}
    rows = ["parametrization,seed,stage,pair,abs_pearson"]
    for param in PARAMETRIZATIONS:
        per_seed_init, per_seed_trained = [], []
        for seed in seeds:
            net = _cifar_net(param, width, seed, train_data)
            init_rep = four_pair_report(net)
            _fit(net, epochs, seed, train_data, test_data)
            trained_rep = four_pair_report(net)
            per_seed_init.append({f"{a}~{b}": r for a, b, r in init_rep.pairs})
            per_seed_trained.append({f"{a}~{b}": r for a, b, r in trained_rep.pairs})
            for stage, rep in (("init", init_rep), ("trained", trained_rep)):
                for a, b, r in rep.pairs:
                    rows.append(f"{param},{seed},{stage},{a}~{b},{r:.6f}")
        med = lambda dicts, key: statistics.median(d[key] for d in dicts)
        keys = list(per_seed_init[0])
        per_param[param] = {
            "init": {k: med(per_seed_init, k) for k in keys},
            "trained": {k: med(per_seed_trained, k) for k in keys},
        }

    init_ok = all(
        v <= 0.1 for param in PARAMETRIZATIONS for v in per_param[param]["init"].values()
    )
    mfp_first = per_param["MFP"]["trained"]["first_layer~M.column"]
    sp_first = per_param["SP"]["trained"]["first_layer~M.column"]
    mfp_last = per_param["MFP"]["trained"]["last_layer~M.row"]
    checks = {
        "init_all_below_0.1": init_ok,
        "mfp_first_vs_mcolumn_ge_0.3": mfp_first >= 0.3,
        "mfp_ge_3x_sp": mfp_first >= 3.0 * sp_first,
        "mfp_last_vs_mrow_ge_0.1": mfp_last >= 0.1,
    }
    passed = all(checks.values())
    lines = []
    for param in PARAMETRIZATIONS:
        t = per_param[param]["trained"]
        i = per_param[param]["init"]
        init_ok_p = all(v <= 0.1 for v in i.values())
        lines.append(
            f"{param}: init_max={max(i.values()):.4f} "
            f"first~M.column={t['first_layer~M.column']:.4f} "
            f"last~M.row={t['last_layer~M.row']:.4f} "
            f"{'PASS' if init_ok_p else 'FAIL'}(init)"
        )
    lines += [f"{k}: {'PASS' if v else 'FAIL'}" for k, v in checks.items()]
    summary = "\n".join(lines)
    _write(out_dir, "table1.csv", "\n".join(rows) + "\n")
    _write(out_dir, "table1_summary.txt", summary + "\n")
    return {"medians": per_param, "checks": checks, "passed": passed, "summary": summary}


def fig1_heatmaps(train_data, test_data, out_dir, width=300, epochs=10, seed=0) -> dict:
    """Middle-layer heatmap grids at init and after training, written to
    ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for param in PARAMETRIZATIONS:
        net = _cifar_net(param, width, seed, train_data)
        heatmap_export(net, "w1", path=out_dir / f"fig1_{param}_init.grid")
        _fit(net, epochs, seed, train_data, test_data)
        heatmap_export(net, "w1", path=out_dir / f"fig1_{param}_trained.grid")
        written += [f"fig1_{param}_init.grid", f"fig1_{param}_trained.grid"]
    return {"files": written, "passed": True, "summary": f"wrote {len(written)} grids"}


def _transfer_experiment(train_data, test_data, source_width, target_width, rates, seeds,
                         transfer_epoch, post_epochs, out_dir, tag) -> dict:
    """Grow or prune at a given epoch and compare against the from-scratch
    benchmark at the target width."""
    # Neither the source nor the from-scratch benchmark depends on the rates,
    # and transfer leaves its source untouched, so each is trained once per seed.
    sources, benchmarks = {}, {}
    for seed in seeds:
        sources[seed] = _cifar_net("MFP", source_width, seed, train_data)
        _fit(sources[seed], transfer_epoch, seed, train_data, test_data)
        bench_net = _cifar_net("MFP", target_width, seed, train_data)
        bench_log = _fit(bench_net, transfer_epoch + post_epochs, seed, train_data, test_data)
        benchmarks[seed] = bench_log.final("test_acc")
    rows = ["r1,r2,seed,epoch,test_acc,benchmark_acc"]
    checks = {}
    for r1, r2 in rates:
        gaps = []
        for seed in seeds:
            source = sources[seed]
            plan = uniform_plan(source.arch, target_width, r1=r1, r2=r2)
            grown, _ = transfer(source, plan, Rng(seed))
            log = _fit(grown, post_epochs, seed, train_data, test_data)
            acc = log.final("test_acc")
            bench = benchmarks[seed]
            gaps.append(bench - acc)
            rows.append(f"{r1},{r2},{seed},{post_epochs},{acc:.4f},{bench:.4f}")
        checks[f"r1={r1},r2={r2}"] = statistics.median(gaps) <= 0.02
    passed = all(checks.values())
    summary = "\n".join(f"{k}: {'PASS' if v else 'FAIL'}" for k, v in checks.items())
    _write(out_dir, f"{tag}.csv", "\n".join(rows) + "\n")
    _write(out_dir, f"{tag}_summary.txt", summary + "\n")
    return {"checks": checks, "passed": passed, "summary": summary}


def fig2_grow(train_data, test_data, seeds=(0,),
              rates=((0.0, 0.0), (1.0, 0.4), (4.0, 0.8)), out_dir=None) -> dict:
    return _transfer_experiment(train_data, test_data, 100, 1000, rates, seeds,
                                transfer_epoch=4, post_epochs=3, out_dir=out_dir,
                                tag="fig2_grow")


def fig2_prune(train_data, test_data, seeds=(0,), rates=((0.0, 0.0), (0.5, 0.9)),
               out_dir=None) -> dict:
    return _transfer_experiment(train_data, test_data, 1000, 100, rates, seeds,
                                transfer_epoch=4, post_epochs=3, out_dir=out_dir,
                                tag="fig2_prune")


# twolayer_regen's largest test-loss ratio; accuracy_experiment's least median.
_REGEN_RATIO_BOUND = 1.2
_ACCURACY_THRESHOLD = 0.43


def twolayer_regen(seed=0, source_width=500, target_width=2000, out_dir=None) -> dict:
    """Train a 2-layer mean-field net on sine regression, regenerate a wider
    net by moment-matched resampling, and compare test losses with no
    retraining. Data, init, training order and transfer draw on labelled
    streams of the one ``Rng(seed)``."""
    rng = Rng(seed)
    train_data = synth_regression("sine", 1024, 0.0, rng)
    test_data = synth_regression("sine", 512, 0.0, rng, split="test")
    arch = build_mlp(2, source_width, parametrization="MFP")
    net = initialize(zeros_network(arch), nonzero_mean_default("MFP", arch), rng)
    opt = OptimizerState.create(net, lr=0.05)
    train(net, train_data, opt, epochs=40, batch_size=32, rng=rng)
    src_mse, _ = evaluate(net, test_data.inputs, test_data.targets, "square")

    plan = uniform_plan(net.arch, target_width, strategy="function_based")
    regen, _ = transfer(net, plan, rng)
    regen_mse, _ = evaluate(regen, test_data.inputs, test_data.targets, "square")
    ratio = regen_mse / src_mse
    passed = ratio <= _REGEN_RATIO_BOUND
    summary = (f"source_mse={src_mse:.6g} regen_mse={regen_mse:.6g} "
               f"ratio={ratio:.4f} bound={_REGEN_RATIO_BOUND} {'PASS' if passed else 'FAIL'}")
    _write(out_dir, "twolayer_regen.txt", summary + "\n")
    return {"source_mse": src_mse, "regen_mse": regen_mse, "ratio": ratio,
            "passed": passed, "summary": summary}


def update_probe(out_dir=None) -> dict:
    """First-step update-order probe for MFP and SP with acceptance bands."""
    results = {}
    lines = []
    for param, lo, hi in (("MFP", 0.7, 1.5), ("SP", 1.5, 3.0)):
        out = update_scaling_probe(param)
        ok = lo <= out["median"] <= hi
        results[param] = {"median": out["median"], "ratios": out["ratios"], "ok": ok}
        lines.append(f"{param}: median={out['median']:.4f} band=[{lo},{hi}] "
                     f"{'PASS' if ok else 'FAIL'}")
    passed = all(r["ok"] for r in results.values())
    summary = "\n".join(lines)
    _write(out_dir, "update_probe.txt", summary + "\n")
    return {"results": results, "passed": passed, "summary": summary}


REPRODUCIBLE = {
    "table1": table1,
    "fig1": fig1_heatmaps,
    "fig2_grow": fig2_grow,
    "fig2_prune": fig2_prune,
    "twolayer_regen": twolayer_regen,
    "accuracy": accuracy_experiment,
    "update_probe": update_probe,
}
