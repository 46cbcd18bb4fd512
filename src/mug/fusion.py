"""MUG's pre-training objective and its gradient, training loop, frozen embedding, checkpoints.

A MugModel is its named parameters plus the TrainConfig they were trained
with. param_shapes names them: the dimension encoder, the encoder shared by
every view, the decoder and the attention head. Their shapes depend only on
the sample size and the unified dimension k, never on a dataset's attribute
width or view count. Structural embeddings are retrained per graph and are
not part of the model.

objective runs the forward helpers that embed runs too (dimalign's basis
and projection, metamae's encoder, the semantic attention and fusion here),
adds the alignment, reconstruction and scattering terms, and then computes
the gradient of their weighted total by hand, in reverse order. _train hands
that gradient to Adam once per epoch; a non-finite total or gradient stops
training with DivergenceError before the parameters change.

Checkpoint format (UTF-8 text):

    MUG-CKPT v3
    [meta]
    <key> <value>          one line per TrainConfig field, in field order;
                           nested fields read walk.dim, mask.edge_mask_rate
    [params]
    <name> <rows> <cols>   one header per param_shapes entry, in that order,
    <row values>           each followed by its rows of repr(float) values

load_checkpoint parses [meta] into a TrainConfig first, then requires the
matrix headers to equal param_shapes of that config. Any fault raises
CheckpointError naming the file and the section; other versions are refused.
"""

from __future__ import annotations

import copy
import io
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import dimalign, metamae, structenc
from .bundle import read_text
from .hetgraph import EdgeList, HetGraph, metapath_edges
from .metamae import MaskSpec
from .rng import RngStream, STREAM_INIT, STREAM_MASK, STREAM_SAMPLE
from .structenc import WalkConfig

CHECKPOINT_MAGIC = "MUG-CKPT v3"


@dataclass
class TrainConfig:
    lambda_align: float = 1.0
    lambda_recon: float = 1.0
    lambda_scatter: float = 0.1
    epochs: int = 400
    learning_rate: float = 1e-3
    seed: int = 0
    no_cse: bool = False
    no_align: bool = False
    no_scatter: bool = False
    sample_size: int = 128
    unified_dim: int = 64
    gamma: float = 2.0
    walk: WalkConfig = field(default_factory=WalkConfig)
    mask: MaskSpec = field(default_factory=MaskSpec)

    def validate(self, n_views: int = 1):
        """Check the settings; n_views is the view count of the graph to train on."""
        for key, least in (("epochs", 0), ("sample_size", 1), ("unified_dim", 1), ("gamma", 1),
                           ("lambda_align", 0), ("lambda_recon", 0), ("lambda_scatter", 0)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be >= {least}, got {getattr(self, key)}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs * n_views >= 1 << 32:
            raise ValueError(f"epochs x views must be < 2**32 to key the mask streams, "
                             f"got {self.epochs} x {n_views}")
        self.walk.validate()
        self.mask.validate()


def param_shapes(cfg: TrainConfig) -> List[Tuple[str, Tuple[int, int]]]:
    """(name, shape) of every transferable parameter, in checkpoint order."""
    k, ns = cfg.unified_dim, cfg.sample_size
    return [
        ("dim.weight", (ns, k)), ("dim.bias", (1, k)),
        ("enc.weight", (k, k)), ("enc.bias", (1, k)),
        ("dec.weight", (k, k)), ("dec.bias", (1, k)),
        ("att.q", (k, 1)), ("att.weight", (k, k)), ("att.bias", (1, k)),
    ]


@dataclass
class MugModel:
    params: Dict[str, np.ndarray]    # keyed as param_shapes names them
    cfg: TrainConfig                 # the config the parameters were trained with

    @property
    def unified_dim(self) -> int:
        return self.cfg.unified_dim


class DivergenceError(FloatingPointError):
    def __init__(self, epoch: int):
        super().__init__(f"training diverged (non-finite loss) at epoch {epoch}")
        self.epoch = epoch


# -- attention / fusion / losses ----------------------------------------------


def softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over a vector, max-subtracted for stability."""
    e = np.exp(scores - scores.max())
    return e / e.sum()


def attention_scores(q: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                     views: Sequence[np.ndarray]) -> np.ndarray:
    """Per-view scalar: node-mean of qᵀ tanh(z W + b)."""
    return np.array([(np.tanh(z @ weight + bias) @ q).mean() for z in views])


def attention_weights(q: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                      views: Sequence[np.ndarray]) -> np.ndarray:
    """Softmax over the per-view scores; one weight per view, summing to one."""
    if not views:
        raise ValueError("need at least one view")
    return softmax(attention_scores(q, weight, bias, views))


def fuse(beta: np.ndarray, views: Sequence[np.ndarray]) -> np.ndarray:
    """Convex combination of the view embeddings."""
    if len(beta) != len(views):
        raise ValueError(f"{len(beta)} weights for {len(views)} views")
    acc = views[0] * beta[0]
    for i in range(1, len(views)):
        acc = acc + views[i] * beta[i]
    return acc


def scatter_loss(z: np.ndarray) -> Tuple[float, np.ndarray]:
    """Negative mean squared distance to the embedding centroid; and its gradient."""
    n = len(z)
    centered = z + z.mean(axis=0, keepdims=True) * -1.0
    return float(np.power(centered, 2.0).sum() * (-1.0 / n)), centered * (-2.0 / n)


def _lambdas(cfg: TrainConfig) -> Tuple[float, float, float]:
    """The weights of the align, reconstruction and scatter terms; ablated terms weigh 0."""
    return (0.0 if cfg.no_align else cfg.lambda_align, cfg.lambda_recon,
            0.0 if cfg.no_scatter else cfg.lambda_scatter)


def total_loss(l_align: float, beta: np.ndarray, view_losses: np.ndarray,
               l_scatter: float, cfg: TrainConfig) -> float:
    """lambda1 * align + lambda2 * sum(beta * per-view) + lambda3 * scatter."""
    lam1, lam2, lam3 = _lambdas(cfg)
    return float(l_align * lam1 + (beta * view_losses).sum() * lam2 + l_scatter * lam3)


@dataclass
class LossParts:
    """The terms of one objective evaluation, before the loss weights."""

    l_align: float
    beta: np.ndarray           # attention weight per view
    view_losses: np.ndarray    # reconstruction loss per view
    l_scatter: float
    total: float


def objective(params: Dict[str, np.ndarray], state: _GraphState,
              masked: Sequence[EdgeList],
              cfg: TrainConfig) -> Tuple[LossParts, Dict[str, np.ndarray]]:
    """The pre-training loss parts and the gradient of their total.

    masked holds each view's kept edges. Every view's encoder runs, then the
    attention β, then each decoder with recon_loss weighted by λ_recon·βᵢ, so
    one pass gives a view's loss and Ẑ gradient; the rest of the gradient runs
    in reverse order. Returns (parts, grads), grads keyed like params.
    """
    p = params
    sample = state.unified[state.sample_idx]
    basis = dimalign.basis_vectors(p["dim.weight"], p["dim.bias"], sample)
    l_align, d_align = dimalign.align_loss(basis)
    x = dimalign.project(basis, state.unified)
    xw = x @ p["enc.weight"]
    ops = [metamae.normalized_operator(m) for m in masked]
    zs = [metamae.encode(op, xw, p["enc.bias"]) for op in ops]
    beta = attention_weights(p["att.q"], p["att.weight"], p["att.bias"], zs)
    lam_align, lam_recon, lam_scatter = _lambdas(cfg)
    # per view: (loss, λ_recon·βᵢ times its gradient with respect to Ẑ)
    recon = [metamae.recon_loss(view, metamae.graph_conv(op, z @ p["dec.weight"], p["dec.bias"]),
                                cfg.gamma, lam_recon * b)
             for view, op, z, b in zip(state.views, ops, zs, beta)]
    l_scatter, d_fused = scatter_loss(fuse(beta, zs))
    view_losses = np.array([loss for loss, _ in recon])
    parts = LossParts(l_align, beta, view_losses, l_scatter,
                      total_loss(l_align, beta, view_losses, l_scatter, cfg))

    d_fused *= lam_scatter
    d_beta = lam_recon * view_losses + np.array([(d_fused * z).sum() for z in zs])
    d_score = beta * (d_beta - (d_beta * beta).sum())   # through the softmax
    g = {name: np.zeros_like(value) for name, value in p.items()}
    d_xw = np.zeros_like(xw)
    for i, (op, z, (_, d_z_hat)) in enumerate(zip(ops, zs, recon)):
        t = np.tanh(z @ p["att.weight"] + p["att.bias"])
        d_pre = (d_score[i] / len(z)) * p["att.q"].T * (1.0 - t * t)
        g["att.q"] += (d_score[i] / len(z)) * t.sum(axis=0)[:, None]
        g["att.weight"] += z.T @ d_pre
        g["att.bias"] += d_pre.sum(axis=0, keepdims=True)
        d_z = beta[i] * d_fused + d_pre @ p["att.weight"].T
        d_zw = op.T @ d_z_hat
        g["dec.weight"] += z.T @ d_zw
        g["dec.bias"] += d_z_hat.sum(axis=0, keepdims=True)
        d_z += d_zw @ p["dec.weight"].T
        d_h = d_z * np.where(z > 0, 1.0, metamae.LEAKY_SLOPE)
        g["enc.bias"] += d_h.sum(axis=0, keepdims=True)
        d_xw += op.T @ d_h
    g["enc.weight"] = x.T @ d_xw
    d_basis = state.unified.T @ (d_xw @ p["enc.weight"].T) + lam_align * d_align
    g["dim.weight"] = sample @ d_basis
    g["dim.bias"] = d_basis.sum(axis=0, keepdims=True)
    return parts, g


# -- optimizer ------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Optimizer:
    """Adam over the trainable parameters, updated in place."""

    def __init__(self, params: Dict[str, np.ndarray], cfg: TrainConfig,
                 trainable: Sequence[str]):
        self.params = params
        self.cfg = cfg
        self.trainable = list(trainable)
        self.t = 0
        self.m = {k: np.zeros_like(params[k]) for k in self.trainable}
        self.v = {k: np.zeros_like(params[k]) for k in self.trainable}

    def step(self, grads: Dict[str, np.ndarray]) -> None:
        self.t += 1
        for k in self.trainable:
            g = grads[k]
            self.m[k] = ADAM_BETA1 * self.m[k] + (1 - ADAM_BETA1) * g
            self.v[k] = ADAM_BETA2 * self.v[k] + (1 - ADAM_BETA2) * g * g
            m_hat = self.m[k] / (1 - ADAM_BETA1**self.t)
            v_hat = self.v[k] / (1 - ADAM_BETA2**self.t)
            self.params[k] -= self.cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# -- pre-training ----------------------------------------------------------------


def _init_params(cfg: TrainConfig, seed: int) -> Dict[str, np.ndarray]:
    params = {}
    for i, (name, shape) in enumerate(param_shapes(cfg)):
        if name.endswith(".bias"):
            params[name] = np.zeros(shape)
        else:
            params[name] = dimalign.glorot(RngStream(seed, STREAM_INIT + i), *shape)
    return params


def config_fields(cfg):
    """(key, owner, field name, value) per scalar field; nested keys read 'walk.dim'."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            for key, owner, name, v in config_fields(value):
                yield f"{f.name}.{key}", owner, name, v
        else:
            yield f.name, cfg, f.name, value


def config_echo(cfg: TrainConfig) -> Dict[str, str]:
    return {key: str(value) for key, _, _, value in config_fields(cfg)}


@dataclass
class _GraphState:
    unified: np.ndarray
    views: List[EdgeList]    # one per meta-path, in row-major order
    sample_idx: np.ndarray


def _prepare_graph(g: HetGraph, cfg: TrainConfig) -> _GraphState:
    """The per-graph inputs that pre-training and frozen embedding share.

    Struct table (unless ablated), unified attributes, meta-path views and
    the dimension-encoder node sample, all keyed by cfg.seed.
    """
    if not g.metapaths:
        raise ValueError("graph declares no meta-paths")
    table = None
    if not cfg.no_cse:
        table = structenc.train_struct_table(g, cfg.walk, RngStream(cfg.seed, 1))
    unified = structenc.unify_attrs(g, table)
    views = [metapath_edges(g, mp) for mp in g.metapaths]
    sample_idx = dimalign.draw_node_sample(
        g.counts[g.target_type], cfg.sample_size, RngStream(cfg.seed, STREAM_SAMPLE))
    return _GraphState(unified=unified, views=views, sample_idx=sample_idx)


def _train(state: _GraphState, cfg: TrainConfig,
           trace: Optional[List[Dict[str, float]]]) -> MugModel:
    params = _init_params(cfg, cfg.seed)
    trainable = [k for k in params
                 if not (cfg.no_align and k.startswith("dim."))]
    opt = Optimizer(params, cfg, trainable)

    masked = None
    for epoch in range(cfg.epochs):
        if cfg.mask.resample_per_epoch or masked is None:
            masked = []
            for i, view in enumerate(state.views):
                stream = RngStream(cfg.seed, STREAM_MASK + epoch * len(state.views) + i)
                masked.append(metamae.mask_edges(view, cfg.mask, stream))

        with np.errstate(over="ignore", invalid="ignore"):   # checked just below
            parts, grads = objective(params, state, masked, cfg)
        finite = np.isfinite(parts.total) and all(np.isfinite(g).all()
                                                  for g in grads.values())
        if not finite:
            raise DivergenceError(epoch)
        opt.step(grads)

        if trace is not None:
            trace.append({
                "epoch": epoch,
                "l_align": 0.0 if cfg.no_align else parts.l_align,
                "l_recon_weighted": float(sum(b * l for b, l in
                                              zip(parts.beta, parts.view_losses))),
                "l_scatter": 0.0 if cfg.no_scatter else parts.l_scatter,
                "total": parts.total,
            })

    return MugModel(params, copy.deepcopy(cfg))


def pretrain(g: HetGraph, cfg: TrainConfig,
             trace: Optional[List[Dict[str, float]]] = None) -> MugModel:
    """Full-batch pre-training on one graph; returns the transferable model.

    The per-epoch trace rows hold the loss parts; training aborts with the
    offending epoch if the loss goes non-finite.
    """
    cfg.validate(len(g.metapaths))
    return _train(_prepare_graph(g, cfg), cfg, trace)


# -- frozen-encoder embedding ----------------------------------------------------


def embed(model: MugModel, g: HetGraph, seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Frozen transfer: retrain the struct table on g, apply frozen parameters.

    Returns (fused embedding |V_target| x k, per-view attention weights).
    No masking at embedding time and no parameter updates of any kind.
    """
    state = _prepare_graph(g, replace(model.cfg, seed=seed))
    p = model.params
    basis = dimalign.basis_vectors(p["dim.weight"], p["dim.bias"],
                                   state.unified[state.sample_idx])
    xw = dimalign.project(basis, state.unified) @ p["enc.weight"]
    z_views = [metamae.encode(metamae.normalized_operator(view), xw, p["enc.bias"])
               for view in state.views]
    beta = attention_weights(p["att.q"], p["att.weight"], p["att.bias"], z_views)
    return fuse(beta, z_views), beta


# -- checkpoint I/O ---------------------------------------------------------------


def save_checkpoint(model: MugModel, path: str) -> None:
    buf = io.StringIO()
    buf.write(CHECKPOINT_MAGIC + "\n[meta]\n")
    for key, value in config_echo(model.cfg).items():
        buf.write(f"{key} {value}\n")
    buf.write("[params]\n")
    for name, _ in param_shapes(model.cfg):
        mat = model.params[name]
        buf.write(f"{name} {mat.shape[0]} {mat.shape[1]}\n")
        for row in mat:
            buf.write(" ".join(repr(float(v)) for v in row) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


class CheckpointError(ValueError):
    pass


def _read_meta(path: str, lines: List[str]) -> TrainConfig:
    """Invert config_echo: every TrainConfig field exactly once."""
    cfg = TrainConfig()
    todo = {key: (owner, name, default) for key, owner, name, default in config_fields(cfg)}
    for line in lines:
        key, _, text = line.partition(" ")
        if key not in todo:
            raise CheckpointError(f"{path}: [meta] unknown or repeated key '{key}'")
        owner, name, default = todo.pop(key)
        try:
            if isinstance(default, bool):
                value = {"True": True, "False": False}[text]
            else:
                value = type(default)(text)
        except (KeyError, ValueError):
            raise CheckpointError(f"{path}: [meta] bad value for '{key}': '{text}'") from None
        setattr(owner, name, value)
    if todo:
        raise CheckpointError(f"{path}: [meta] has no '{next(iter(todo))}'")
    try:
        cfg.validate()
    except ValueError as exc:
        raise CheckpointError(f"{path}: [meta] {exc}") from None
    return cfg


def _read_params(path: str, lines: List[str], cfg: TrainConfig) -> Dict[str, np.ndarray]:
    """The param_shapes(cfg) matrices, in order, each with exactly its shape."""
    params: Dict[str, np.ndarray] = {}
    i = 0
    for name, (r, c) in param_shapes(cfg):
        header = lines[i] if i < len(lines) else "the end of the file"
        if header != f"{name} {r} {c}":
            raise CheckpointError(f"{path}: [params] expected matrix header "
                                  f"'{name} {r} {c}' (shape from [meta]), found '{header}'")
        where = f"{path}: [params] matrix '{name}'"
        rows = [row.split(" ") for row in lines[i + 1:i + 1 + r]]
        if len(rows) < r:
            raise CheckpointError(f"{where} is cut short")
        for j, row in enumerate(rows):
            if len(row) != c:
                raise CheckpointError(
                    f"{where}: row {j + 1} has {len(row)} values, expected {c}")
        try:
            params[name] = np.array([[float(v) for v in row] for row in rows])
        except ValueError as exc:
            raise CheckpointError(f"{where}: {exc}") from None
        i += 1 + r
    if i < len(lines):
        raise CheckpointError(f"{path}: [params] unexpected line after the last "
                              f"matrix: '{lines[i]}'")
    return params


def load_checkpoint(path: str) -> MugModel:
    lines = read_text(path).split("\n")
    if lines[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a '{CHECKPOINT_MAGIC}' checkpoint")

    body = [line for line in lines[1:] if line]
    if body[:1] != ["[meta]"] or "[params]" not in body:
        raise CheckpointError(f"{path}: expected a [meta] and then a [params] section")
    split = body.index("[params]")
    cfg = _read_meta(path, body[1:split])
    return MugModel(_read_params(path, body[split + 1:], cfg), cfg)
