"""Model state assembly and the shared forward pass.

One ModelState holds the two adjacencies and one ``ad.Params`` with every
trainable weight of both domains, named where it is drawn and kept in draw
order. Layers, optimizers and save/load use the weights by these names, which
are also the ``model.npz`` member names (the README tabulates them, and
``tests/test_readme.py`` checks that table against ``build_model``).

A variant reaches this module as its row of ``config.VARIANTS``, the codes
its user towers fuse: ``build_model`` draws encoder, classifier and fusion
weights only for a non-empty row and sizes each user tower by it, and
``forward`` fuses those codes or, on the empty row (``base``), runs the
towers on the raw graph embeddings. ``elbo`` is the one name read here (its
decoders and encoder statistics). ``training`` reads the same row to skip
λ, noise and the auxiliary losses on ``base``, and branches on ``elbo`` (its
objective) and ``fixed_lambda`` (λ pinned at 0.5).

Both domains run the same steps, so each step is one loop over ``DOMAINS``:
a domain's weights carry its tag (``gcn_<tag>``, ``tow_<tag>.user``), and a
ForwardPass keeps its per-domain outputs in dicts keyed by domain tag.

``forward`` is the one place where user and item representations are built,
for training and eval alike. It builds the towered rows of the pass's users
(``s``) and of each scored domain's items (``t``), and no others: a training
step scores its batches' distinct items, eval every item. ``score_pairs``
then only looks rows up. A pass keeps the encoder heads' statistics (mu and
log sigma) and inputs only on ``elbo``, whose objective reads them; on every
other variant they are dropped once the codes are taken.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import disentangle as dis
from . import fusion as fu
from . import graph as gr
from .autodiff import Value
from .config import VARIANTS, ConfigError, RunConfig, config_lines, parse_fields
from .data import ArtifactError, atomic_write
from .mixup import interpolate

DOMAINS = ("a", "b")
BRANCHES = DOMAINS + ("aug",)

@dataclass
class ModelState:
    config: RunConfig
    adjacency_a: gr.NormalizedAdjacency
    adjacency_b: gr.NormalizedAdjacency
    params: ad.Params  # every weight, by name, in draw order

    def adjacency(self, tag: str) -> gr.NormalizedAdjacency:
        return getattr(self, f"adjacency_{tag}")


def build_model(
    adjacency_a: gr.NormalizedAdjacency,
    adjacency_b: gr.NormalizedAdjacency,
    config: RunConfig,
) -> ModelState:
    config.validate()
    if adjacency_a.num_users != adjacency_b.num_users:
        raise ConfigError("domains must share the user set")
    params = ad.Params(np.random.default_rng([config.seed, 0]), config.init_std)
    k, l = config.k, config.l
    gw = (l + 1) * k
    components = VARIANTS[config.variant]

    for tag, adjacency in zip(DOMAINS, (adjacency_a, adjacency_b)):
        gr.init_gcn_weights(params, f"gcn_{tag}", adjacency.size, k, l)
        if components and config.fusion == "attention":
            fu.init_fusion_weights(params, f"fus_{tag}", k, len(components))
        user_in = gw if not components else fu.fused_width(config.fusion, k, len(components))
        fu.init_tower_weights(params, f"tow_{tag}.user", user_in, k)
        fu.init_tower_weights(params, f"tow_{tag}.item", gw, k)
    if components:
        for branch in BRANCHES:
            dis.init_disentangle_weights(params, f"enc_{branch}", gw, k)
        dis.init_domain_classifier(params, "clf", k)
    if config.variant == "elbo":
        for branch in BRANCHES:
            for head in ("h1", "h2"):
                params.new(f"dec_{branch}.{head}.w", (k, gw))
                params.new(f"dec_{branch}.{head}.b", (1, gw))
    return ModelState(config, adjacency_a, adjacency_b, params)


@dataclass
class ForwardPass:
    """Everything a loss or an evaluation needs from one forward sweep, and
    nothing more: ``codes`` are empty on ``base``, and ``enc_results`` and
    ``enc_inputs`` are empty on every variant but ``elbo``."""

    users: np.ndarray  # sorted union of user indices the pass covers
    lam: float
    items: dict[str, np.ndarray]  # per scored domain: sorted distinct item indices
    s: dict[str, Value]  # per scored domain: towered user representations aligned with `users`
    t: dict[str, Value]  # per scored domain: towered item representations aligned with `items`
    codes: dict[str, Value] = field(default_factory=dict)
    enc_results: dict[str, dis.EncodeResult] = field(default_factory=dict)  # elbo only
    enc_inputs: dict[str, Value] = field(default_factory=dict)  # elbo only


def forward(
    model: ModelState,
    user_indices: np.ndarray,
    lam: float,
    noise_rngs: dict[str, np.random.Generator] | None = None,
    item_indices: dict[str, np.ndarray] | None = None,
) -> ForwardPass:
    """One sweep that builds the rows of ``user_indices`` and of the scored items.

    ``item_indices`` maps each domain the pass scores to its sorted distinct
    items; without it the pass scores every item of both domains, as eval
    does. ``s`` and ``t`` are built for the scored domains only. The encoders
    draw noise iff ``noise_rngs`` is given.
    """
    cfg, params = model.config, model.params
    users = np.asarray(user_indices, dtype=np.int64)
    if item_indices is None:
        item_indices = {tag: np.arange(model.adjacency(tag).num_items) for tag in DOMAINS}
    items = {tag: np.asarray(idx, dtype=np.int64) for tag, idx in item_indices.items()}
    components = VARIANTS[cfg.variant]
    eu: dict[str, Value] = {}
    t: dict[str, Value] = {}
    # the encoders read both domains' users; base reads only the scored domains
    for tag in DOMAINS if components else items:
        adjacency = model.adjacency(tag)
        layers = gr.encode_graph(adjacency, params, f"gcn_{tag}", cfg.l)
        eu[tag] = gr.node_rows(layers, users)
        if tag in items:
            item_rows = gr.node_rows(layers, adjacency.num_users + items[tag])
            t[tag] = fu.tower_forward(item_rows, params, f"tow_{tag}.item")

    if not components:  # base: towers on raw graph embeddings
        s = {tag: fu.tower_forward(eu[tag], params, f"tow_{tag}.user") for tag in items}
        return ForwardPass(users=users, lam=lam, items=items, s=s, t=t)

    enc_inputs = dict(eu, aug=interpolate(eu["a"], eu["b"], lam))
    enc_results = {
        branch: dis.encode(
            enc_inputs[branch],
            params,
            f"enc_{branch}",
            rng=noise_rngs.get(branch) if noise_rngs else None,
        )
        for branch in BRANCHES
    }
    codes = {
        "ind_a": enc_results["a"].z1,
        "spe_a": enc_results["a"].z2,
        "ind_b": enc_results["b"].z1,
        "spe_b": enc_results["b"].z2,
        "sha": enc_results["aug"].z1,
        "spe_aug": enc_results["aug"].z2,
    }
    if cfg.variant != "elbo":
        # only the ELBO objective reads the heads' mu and log sigma: drop
        # them now, so that they die before fusion and the towers run
        enc_results, enc_inputs = {}, {}

    def fused_user_rep(tag: str) -> Value:
        other = "b" if tag == "a" else "a"
        chosen = []
        for comp in components:
            if comp == "ind_other":
                chosen.append(codes[f"ind_{other}"])
            elif comp == "sha":
                chosen.append(codes["sha"])
            else:
                chosen.append(codes[f"{comp}_{tag}"])
        fused = fu.fuse(chosen, cfg.fusion, params, f"fus_{tag}")
        return fu.tower_forward(fused, params, f"tow_{tag}.user")

    return ForwardPass(
        users=users,
        lam=lam,
        items=items,
        s={tag: fused_user_rep(tag) for tag in items},
        t=t,
        codes=codes,
        enc_results=enc_results,
        enc_inputs=enc_inputs,
    )


def _positions(covered: np.ndarray, wanted: np.ndarray, what: str) -> np.ndarray:
    """Row of each ``wanted`` index in the sorted ``covered`` indices."""
    positions = np.searchsorted(covered, wanted)
    # an index above every covered one lands one past the end
    if (positions == covered.size).any() or not np.array_equal(covered[positions], wanted):
        raise ad.ContractError(f"pair {what} missing from the forward pass")
    return positions


def score_pairs(
    fwd: ForwardPass,
    domain: str,
    pair_users: np.ndarray,
    pair_items: np.ndarray,
) -> tuple[Value, Value, Value]:
    """Cosine scores for (user, item) pairs; returns (y_hat, s_rows, t_rows)."""
    s_rows = ad.gather_rows(fwd.s[domain], _positions(fwd.users, pair_users, "users"))
    t_rows = ad.gather_rows(fwd.t[domain], _positions(fwd.items[domain], pair_items, "items"))
    return fu.predict(s_rows, t_rows), s_rows, t_rows


def save_model(path: str, model: ModelState) -> None:
    arrays = {name: value.data for name, value in model.params.items()}
    arrays["__config__"] = np.array(config_lines(model.config))
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    atomic_write(path, buffer.getvalue())


def load_model(
    path: str,
    adjacency_a: gr.NormalizedAdjacency,
    adjacency_b: gr.NormalizedAdjacency,
) -> ModelState:
    if not os.path.exists(path):
        raise ArtifactError(f"model file not found: {path}")
    try:
        archive = np.load(path)
    except Exception as exc:
        raise ArtifactError(f"unreadable model file {path}: {exc}") from exc
    if "__config__" not in archive:
        raise ArtifactError(f"model file {path} lacks a config record")
    try:
        config = parse_fields(RunConfig, "\n".join(archive["__config__"].tolist()))
    except (TypeError, ValueError) as exc:  # ConfigError is a ValueError
        raise ArtifactError(f"model file {path} has a bad config record: {exc}") from exc
    model = build_model(adjacency_a, adjacency_b, config)
    saved = set(archive.files) - {"__config__"}
    if saved != set(model.params):
        raise ArtifactError(f"model file {path} has mismatched parameter names")
    for name, value in model.params.items():
        try:  # an object array cannot load; a string or complex one cannot cast
            data = archive[name].astype(np.float64, casting="same_kind")
        except (TypeError, ValueError) as exc:
            raise ArtifactError(f"parameter {name} is not a real array: {exc}") from exc
        if data.shape != value.data.shape:
            raise ArtifactError(
                f"parameter {name} shape {data.shape} != expected {value.data.shape}"
            )
        if not np.isfinite(data).all():
            raise ArtifactError(f"parameter {name} holds non-finite values")
        value.data = data
    return model
