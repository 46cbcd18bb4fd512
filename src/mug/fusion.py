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

    MUG-CKPT v6
    [meta]
    <key> = <value>        one line per TrainConfig setting, sorted by its flat
                           config key: config.format_settings, as in an echo
    [params]
    <name> <rows> <cols>   one header per param_shapes entry, in that order,
    <row values>           each followed by its rows of repr(float) values
                           (bundle.format_floats)

load_checkpoint reads [meta] first with config.read_settings, the reader of
config files, so a bad line or a value outside its bound raises that reader's
bundle.BundleError naming the file and the line. It then requires every
TrainConfig setting to be there. It requires the matrix headers to equal
param_shapes of that config, and reads each matrix with bundle.read_floats,
which reports a bad row at its path:line. Any other fault raises
CheckpointError naming the file; other versions are refused (v5 also had
neg_distribution and resample_mask, v4 no_scatter and "key value" lines).
"""

from __future__ import annotations

import copy
import io
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import config, dimalign, metamae, structenc
from .bundle import format_floats, read_floats, read_text, write_text
from .config import TrainConfig
from .hetgraph import EdgeList, HetGraph, metapath_edges
from .rng import INIT, MASK, SAMPLE, STRUCT, RngStream

CHECKPOINT_MAGIC = "MUG-CKPT v6"


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
    """The weights of the align, reconstruction and scatter terms; no_align weighs align 0."""
    return 0.0 if cfg.no_align else cfg.lambda_align, cfg.lambda_recon, cfg.lambda_scatter


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

    masked holds each view's kept edges. One view's operator exists at a time,
    in state.op, and the phases are ordered so that V views take 2V - 1 builds:

    - forward, views V..1: build the view, then run its encoder and decoder;
      view 1 is left in the buffer;
    - the attention β, then per view recon_loss weighted by λ_recon·βᵢ, which
      gives the view's loss and Ẑ gradient from its edges alone;
    - backward, views 1..V: rebuild each view but the first, and take the
      gradient back through its decoder and encoder.

    No view's forward reads another's, and every gradient sum runs in view
    order, so the phase order changes no bit of the result.
    Returns (parts, grads), grads keyed like params.
    """
    p = params
    sample = state.unified[state.sample_idx]
    basis = dimalign.basis_vectors(p["dim.weight"], p["dim.bias"], sample)
    l_align, d_align = dimalign.align_loss(basis)
    x = dimalign.project(basis, state.unified)
    xw = x @ p["enc.weight"]
    op = state.op
    zs, z_hats = [None] * len(masked), [None] * len(masked)
    for i in reversed(range(len(masked))):
        metamae.normalized_operator(masked[i], out=op)
        zs[i] = metamae.encode(op, xw, p["enc.bias"])
        z_hats[i] = metamae.graph_conv(op, zs[i] @ p["dec.weight"], p["dec.bias"])
    beta = attention_weights(p["att.q"], p["att.weight"], p["att.bias"], zs)
    lam_align, lam_recon, lam_scatter = _lambdas(cfg)
    # per view: (loss, λ_recon·βᵢ times its gradient with respect to Ẑ); each Ẑ is
    # dropped once it is scored, so the gradients take its place in memory
    recon = [metamae.recon_loss(view, z_hats.pop(0), cfg.gamma, lam_recon * b)
             for view, b in zip(state.views, beta)]
    l_scatter, d_fused = scatter_loss(fuse(beta, zs))
    view_losses = np.array([loss for loss, _ in recon])
    parts = LossParts(l_align, beta, view_losses, l_scatter,
                      total_loss(l_align, beta, view_losses, l_scatter, cfg))

    d_fused *= lam_scatter
    d_beta = lam_recon * view_losses + np.array([(d_fused * z).sum() for z in zs])
    d_score = beta * (d_beta - (d_beta * beta).sum())   # through the softmax
    g = {name: np.zeros_like(value) for name, value in p.items()}
    d_xw = np.zeros_like(xw)
    for i, (z, (_, d_z_hat)) in enumerate(zip(zs, recon)):
        if i:
            metamae.normalized_operator(masked[i], out=op)
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
            params[name] = dimalign.glorot(RngStream(seed, INIT, i), *shape)
    return params


@dataclass
class _GraphState:
    unified: np.ndarray
    views: List[EdgeList]    # one per meta-path, in row-major order
    sample_idx: np.ndarray
    op: np.ndarray = field(init=False, repr=False)   # one view's N x N operator at a time

    def __post_init__(self):
        n = len(self.unified)
        self.op = np.empty((n, n))


def _prepare_graph(g: HetGraph, cfg: TrainConfig, training: bool = False) -> _GraphState:
    """The per-graph inputs that pre-training and frozen embedding share.

    Meta-path views, struct table (unless ablated), unified attributes and
    the dimension-encoder node sample, all keyed by cfg.seed. The views come
    first, so training refuses an edgeless view before any table is trained;
    embedding takes one, as its operator is the identity.
    """
    if not g.metapaths:
        raise ValueError("graph declares no meta-paths")
    views = [metapath_edges(g, mp) for mp in g.metapaths]
    for mp, view in zip(g.metapaths, views):
        if training and len(view.rows) == 0:
            raise ValueError(f"meta-path '{mp.name}' has no instances: "
                             "pre-training needs an edge in every view")
    table = None
    if not cfg.no_cse:
        table = structenc.train_struct_table(g, cfg.walk, RngStream(cfg.seed, STRUCT))
    unified = structenc.unify_attrs(g, table)
    sample_idx = dimalign.draw_node_sample(
        g.counts[g.target_type], cfg.sample_size, RngStream(cfg.seed, SAMPLE))
    return _GraphState(unified=unified, views=views, sample_idx=sample_idx)


def _train(state: _GraphState, cfg: TrainConfig,
           trace: Optional[List[Dict[str, float]]]) -> MugModel:
    params = _init_params(cfg, cfg.seed)
    trainable = [k for k in params
                 if not (cfg.no_align and k.startswith("dim."))]
    opt = Optimizer(params, cfg, trainable)

    for epoch in range(cfg.epochs):
        masked = [metamae.mask_edges(view, cfg.edge_mask_rate, RngStream(cfg.seed, MASK, epoch, i))
                  for i, view in enumerate(state.views)]

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
                "l_align": parts.l_align,
                "l_recon_weighted": float(sum(b * l for b, l in
                                              zip(parts.beta, parts.view_losses))),
                "l_scatter": parts.l_scatter,
                "total": parts.total,
            })

    return MugModel(params, copy.deepcopy(cfg))


def pretrain(g: HetGraph, cfg: TrainConfig,
             trace: Optional[List[Dict[str, float]]] = None) -> MugModel:
    """Full-batch pre-training on one graph; returns the transferable model.

    The per-epoch trace rows hold the loss parts; training aborts with the
    offending epoch if the loss goes non-finite.
    """
    config.check(config.by_key(cfg))
    return _train(_prepare_graph(g, cfg, training=True), cfg, trace)


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
    z_views = [metamae.encode(metamae.normalized_operator(view, out=state.op), xw, p["enc.bias"])
               for view in state.views]
    beta = attention_weights(p["att.q"], p["att.weight"], p["att.bias"], z_views)
    return fuse(beta, z_views), beta


# -- checkpoint I/O ---------------------------------------------------------------


def save_checkpoint(model: MugModel, path: str) -> None:
    buf = io.StringIO()
    buf.write(CHECKPOINT_MAGIC + "\n[meta]\n")
    buf.write(config.format_settings(config.by_key(model.cfg)))
    buf.write("[params]\n")
    for name, _ in param_shapes(model.cfg):
        mat = model.params[name]
        buf.write(f"{name} {mat.shape[0]} {mat.shape[1]}\n")
        for row in mat:
            buf.write(format_floats(row, " ") + "\n")
    write_text(path, buf.getvalue())


class CheckpointError(ValueError):
    pass


def _read_meta(path: str, lines: List[str]) -> TrainConfig:
    """Invert save_checkpoint's [meta], from line 3: every TrainConfig setting once, each
    checked against its bound as it is read."""
    defaults = config.by_key(TrainConfig())
    values = config.read_settings(lines, path, defaults, 3)
    missing = [key for key in defaults if key not in values]
    if missing:
        raise CheckpointError(f"{path}: [meta] has no '{missing[0]}'")
    return config.filled(TrainConfig(), values)


def _read_params(path: str, lines: List[Tuple[int, str]],
                 cfg: TrainConfig) -> Dict[str, np.ndarray]:
    """The param_shapes(cfg) matrices, each with its shape, from the numbered lines."""
    params: Dict[str, np.ndarray] = {}
    i = 0
    for name, (r, c) in param_shapes(cfg):
        header = lines[i][1] if i < len(lines) else "the end of the file"
        if header != f"{name} {r} {c}":
            raise CheckpointError(f"{path}: [params] expected matrix header "
                                  f"'{name} {r} {c}' (shape from [meta]), found '{header}'")
        rows = [(lineno, text.split(" ")) for lineno, text in lines[i + 1:i + 1 + r]]
        if len(rows) < r:
            raise CheckpointError(f"{path}: [params] matrix '{name}' is cut short")
        params[name] = read_floats(rows, path, c)
        i += 1 + r
    if i < len(lines):
        raise CheckpointError(f"{path}:{lines[i][0]}: [params] unexpected line after the "
                              f"last matrix: '{lines[i][1]}'")
    return params


def load_checkpoint(path: str) -> MugModel:
    lines = read_text(path).split("\n")
    if lines[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a '{CHECKPOINT_MAGIC}' checkpoint")

    if lines[1:2] != ["[meta]"] or "[params]" not in lines:
        raise CheckpointError(f"{path}: expected a [meta] and then a [params] section")
    split = lines.index("[params]")
    cfg = _read_meta(path, lines[2:split])
    numbered = [(n, line) for n, line in enumerate(lines[split + 1:], start=split + 2) if line]
    return MugModel(_read_params(path, numbered, cfg), cfg)
