"""Weight initialization: plain i.i.d. draws, and the row-column scheme where
each N-by-N-proportional matrix is assembled as W[j, k] = phi(R[j], C[k])
from one row vector and one column vector of independent draws.

A matrix is eligible for the row-column mode when both of its axes carry
resizable (hidden) gammas; everything else is drawn i.i.d. Per-weight RNG
substreams make the result independent of iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .arch import ArchGraph, COL, PARAMETRIZATIONS, ROW
from .errors import ParameterError
from .net import Network
from .tensor import DistributionSpec, Rng, constant, gaussian, uniform

_PHI = {"product": np.multiply.outer, "sum": np.add.outer}
PHI_FORMS = tuple(_PHI)


def rc_eligible(arch: ArchGraph, name: str) -> bool:
    """True for matrices whose two axes are both resizable hidden axes."""
    if arch.weight(name).kind != "matrix":
        return False
    p = arch.partition
    return all(p.resizable[p.axis_groups[(name, ax)]] for ax in (ROW, COL))


@dataclass(frozen=True)
class InitSpec:
    """Distributions per weight; rc mode carries (row, col) pairs and a phi
    form for each eligible matrix."""

    mode: str  # "iid" | "rc"
    distributions: dict[str, DistributionSpec] = field(default_factory=dict)
    rc_pairs: dict[str, tuple[DistributionSpec, DistributionSpec]] = field(default_factory=dict)
    phi: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("iid", "rc"):
            raise ParameterError(f"unknown init mode {self.mode!r}")
        for name, form in self.phi.items():
            if form not in PHI_FORMS:
                raise ParameterError(f"weight {name}: unknown phi form {form!r}")


def iid_spec(distributions: dict[str, DistributionSpec]) -> InitSpec:
    return InitSpec("iid", distributions=dict(distributions))


def rc_spec(
    rc_pairs: dict[str, tuple[DistributionSpec, DistributionSpec]],
    other: dict[str, DistributionSpec],
    phi="sum",
) -> InitSpec:
    if isinstance(phi, str):
        phi = {name: phi for name in rc_pairs}
    return InitSpec("rc", distributions=dict(other), rc_pairs=dict(rc_pairs), phi=dict(phi))


def nonzero_mean_default(parametrization: str, arch: ArchGraph) -> InitSpec:
    """Per-parametrization i.i.d. defaults: MFP gets the non-zero-mean
    gaussian(1, 3) on weights, SP a symmetric uniform with bounds
    ±sqrt(1/fan_in), muP a zero-mean gaussian with std sqrt(1/fan_in), the
    fan-in read off the arch (``ArchGraph.fan_in``). Biases start at zero."""
    if parametrization not in PARAMETRIZATIONS:
        raise ParameterError(f"unknown parametrization {parametrization!r}")
    dists: dict[str, DistributionSpec] = {}
    bias_names = {b for _, b in arch.layers if b is not None}
    for w in arch.weights:
        if w.name in bias_names:
            dists[w.name] = constant(0.0)
        elif parametrization == "MFP":
            dists[w.name] = gaussian(1.0, 3.0)
        elif parametrization == "SP":
            bound = sqrt(1.0 / arch.fan_in(w.name))
            dists[w.name] = uniform(-bound, bound)
        else:
            dists[w.name] = gaussian(0.0, sqrt(1.0 / arch.fan_in(w.name)))
    return iid_spec(dists)


def _match_names(spec: InitSpec, what: str, given, wanted: set, required=True) -> None:
    """Raise ParameterError unless the weights ``given`` entries are all in
    ``wanted`` and, when ``required``, cover it."""
    missing = wanted - set(given) if required else set()
    if missing:
        raise ParameterError(f"{spec.mode} init needs {what} for {sorted(missing)}")
    unread = set(given) - wanted
    if unread:
        raise ParameterError(f"{spec.mode} init does not read the {what} for {sorted(unread)}: "
                             f"it reads them for {sorted(wanted)}")


def initialize(net: Network, spec: InitSpec, rng: Rng) -> Network:
    """Fill a network's store from the given init spec. Returns a new Network.

    Every weight needs exactly the entries its mode reads: a (row, col) pair,
    and optionally a phi form, for each rc-eligible matrix in rc mode, and a
    distribution for every other weight. An entry for any other name is a
    ParameterError."""
    arch = net.arch
    store: dict[str, np.ndarray] = {}
    names = {w.name for w in arch.weights}
    paired = {n for n in names if rc_eligible(arch, n)} if spec.mode == "rc" else set()
    _match_names(spec, "(row, col) distributions", spec.rc_pairs, paired)
    _match_names(spec, "phi forms", spec.phi, paired, required=False)
    _match_names(spec, "distributions", spec.distributions, names - paired)

    for w in arch.weights:
        if w.name in paired:
            mu_r, mu_c = spec.rc_pairs[w.name]
            r = mu_r.draw(rng.substream(f"init/{w.name}/R"), w.shape[0])
            c = mu_c.draw(rng.substream(f"init/{w.name}/C"), w.shape[1])
            store[w.name] = _PHI[spec.phi.get(w.name, "sum")](r, c)
        else:
            gen = rng.substream(f"init/{w.name}")
            flat = spec.distributions[w.name].draw(gen, int(np.prod(w.shape)))
            store[w.name] = flat.reshape(w.shape)
    return Network(arch, store)

