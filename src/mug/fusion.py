"""MUG's pre-training objective and its gradient, training loop, frozen embedding, checkpoints.

A MugModel is its named parameters plus the TrainConfig they were trained
with. param_shapes names them: the dimension encoder, the encoder shared by
every view, the decoder and the attention head. Their shapes depend only on
the sample size and the unified dimension k, never on a dataset's attribute
width or view count. Structural embeddings are retrained per graph and are
not part of the model.

_forward is the one forward pass: dimalign's basis and projection, metamae's
shared encoder over each view's operator, and the semantic attention. embed runs
it on the unmasked views, streaming their operators, and fuses. objective runs it
on the masked views, adds the decoder and the alignment, reconstruction and
scattering terms, and computes the gradient of their weighted total by hand, in
reverse order; _train hands it to Adam once per epoch. A non-finite total or
gradient stops training with a FloatingPointError before the parameters change.

Pre-training and embedding compute in COMPUTE, float32: _prepare_graph makes the
unified attributes in it, _init_params and embed make the parameters in it, and
every function after them follows the dtype of its inputs, so the same code runs in
float64 on float64 inputs (the gradient suite's). The attention scores, their
softmax β and embed's result are float64: β sums to 1 within 1e-12, and the
embedding TSV writes the float64 values. The probe casts the embedding to its own
dtype, evalkit.PROBE_DTYPE, on entry.

Checkpoint format (UTF-8 text):

    MUG-CKPT v6
    [meta]
    <key> = <value>        one line per TrainConfig setting, sorted by its flat
                           config key: config.format_settings, as in an echo
    [params]
    <name> <rows> <cols>   one header per param_shapes entry, in that order,
    <row values>           each followed by its rows of repr(float) values
                           (bundle.format_floats): a float32 parameter is written
                           as the float64 of its value, which reads back exactly

load_checkpoint reads [meta] first with config.read_settings, the reader of
config files, so a bad line or a value outside its bound raises that reader's
bundle.BundleError naming the file and the line. It then requires every
TrainConfig setting to be there. It requires the matrix headers to equal
param_shapes of that config, and reads each matrix with bundle.read_floats,
which reports a bad row at its path:line, as float64 arrays that embed casts to
COMPUTE without rounding. Any other fault raises
CheckpointError naming the file; other versions are refused (v5 also had
neg_distribution and resample_mask, v4 no_scatter and "key value" lines).
"""

from __future__ import annotations

import copy
import io
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import config, dimalign, metamae, structenc
from .bundle import BundleError, format_floats, read_floats, read_text, write_text
from .config import TrainConfig
from .hetgraph import EdgeList, HetGraph, metapath_edges
from .rng import INIT, MASK, SAMPLE, STRUCT, RngStream

CHECKPOINT_MAGIC = "MUG-CKPT v6"
COMPUTE = np.float32   # of pre-training and embedding: SGEMM strips and float32 σ, ~2x float64's


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

    @property   # perfbench/run.py reads it from each checkpoint it reloads
    def unified_dim(self) -> int:
        return self.cfg.unified_dim


# -- attention / fusion / losses ----------------------------------------------


def softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over a vector, max-subtracted for stability."""
    e = np.exp(scores - scores.max())
    return e / e.sum()


def attention_scores(q: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                     views: Sequence[np.ndarray]) -> np.ndarray:
    """Per-view scalar: node-mean of qᵀ tanh(z W + b)."""
    return np.array([(np.tanh(z @ weight + bias) @ q).mean(dtype=np.float64) for z in views])


def attention_weights(q: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                      views: Sequence[np.ndarray]) -> np.ndarray:
    """Softmax over the per-view scores; one weight per view, summing to one."""
    if not views:
        raise ValueError("need at least one view")
    return softmax(attention_scores(q, weight, bias, views))


def fuse(beta: np.ndarray, views: Sequence[np.ndarray]) -> np.ndarray:
    """Convex combination of the view embeddings, in the dtype they take with beta."""
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


def _forward(p: Dict[str, np.ndarray], state: _GraphState,
             ops: Iterable[metamae.EdgeOperator]) -> tuple:
    """The one forward pass, what the backward pass reads: the sample rows, the basis,
    xw = x W_enc of the projection x, the shared encoding zs of each op in order, and β."""
    sample = state.unified[state.sample_idx]
    basis = dimalign.basis_vectors(p["dim.weight"], p["dim.bias"], sample)
    # x is dropped here, not held while operators are built: that left the allocator
    # with 14 MB more resident for the probe after embed (`mug eval` on dense views)
    xw = dimalign.project(basis, state.unified) @ p["enc.weight"]
    # map drops each operator once it is encoded, before it builds the next; a loop
    # variable would hold it while the next is built, two operators at once
    zs = list(map(lambda op: metamae.encode(op, xw, p["enc.bias"]), ops))
    return sample, basis, xw, zs, attention_weights(p["att.q"], p["att.weight"],
                                                    p["att.bias"], zs)


def objective(params: Dict[str, np.ndarray], state: _GraphState,
              masked: Sequence[EdgeList],
              cfg: TrainConfig) -> Tuple[LossParts, Dict[str, np.ndarray]]:
    """The pre-training loss parts and the gradient of their total.

    masked holds each view's kept edges. Each view's metamae.normalized_operator is built
    once, in view order; it runs through _forward, the one forward pass, and its decoder,
    and serves the backward pass. recon_loss, weighted by λ_recon·βᵢ, gives each view's
    loss and Ẑ gradient from its edges alone. Every gradient sum runs in view order.
    Returns (parts, grads), grads keyed like params.
    """
    p = params
    ops = [metamae.normalized_operator(view, state.unified.dtype) for view in masked]
    sample, basis, xw, zs, beta = _forward(p, state, ops)
    l_align, d_align = dimalign.align_loss(basis)
    z_hats = [metamae.graph_conv(op, z @ p["dec.weight"], p["dec.bias"]) for op, z in zip(ops, zs)]
    lam_align, lam_recon, lam_scatter = _lambdas(cfg)
    # per view: (loss, λ_recon·βᵢ times its gradient with respect to Ẑ); each Ẑ is
    # dropped once it is scored, so the gradients take its place in memory
    recon = [metamae.recon_loss(view, z_hats.pop(0), cfg.gamma, lam_recon * b)
             for view, b in zip(state.views, beta.tolist())]
    l_scatter, d_fused = scatter_loss(fuse(beta.astype(xw.dtype), zs))   # not β's float64
    view_losses = np.array([loss for loss, _ in recon])
    parts = LossParts(l_align, beta, view_losses, l_scatter,
                      total_loss(l_align, beta, view_losses, l_scatter, cfg))

    d_fused *= lam_scatter
    d_beta = lam_recon * view_losses + np.array([(d_fused * z).sum() for z in zs])
    d_score = beta * (d_beta - (d_beta * beta).sum())   # through the softmax
    g = {name: np.zeros_like(value) for name, value in p.items()}
    d_xw = np.zeros_like(xw)
    # β and d_score as Python floats, which take the dtype of the arrays they scale
    for op, z, (_, d_z_hat), b, d_s in zip(ops, zs, recon, beta.tolist(), d_score.tolist()):
        t = np.tanh(z @ p["att.weight"] + p["att.bias"])
        d_pre = (d_s / len(z)) * p["att.q"].T * (1.0 - t * t)
        g["att.q"] += (d_s / len(z)) * t.sum(axis=0)[:, None]
        g["att.weight"] += z.T @ d_pre
        g["att.bias"] += d_pre.sum(axis=0, keepdims=True)
        d_z = b * d_fused + d_pre @ p["att.weight"].T
        d_zw = op.T @ d_z_hat
        g["dec.weight"] += z.T @ d_zw
        g["dec.bias"] += d_z_hat.sum(axis=0, keepdims=True)
        d_z += d_zw @ p["dec.weight"].T
        d_h = np.where(z > 0, d_z, metamae.LEAKY_SLOPE * d_z)
        g["enc.bias"] += d_h.sum(axis=0, keepdims=True)
        d_xw += op.T @ d_h
    g["enc.weight"] = dimalign.project(basis, state.unified).T @ d_xw   # x, once more
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
    return {name: np.zeros(shape, COMPUTE) if name.endswith(".bias")
            else dimalign.glorot(RngStream(seed, INIT, i), *shape).astype(COMPUTE)
            for i, (name, shape) in enumerate(param_shapes(cfg))}


@dataclass
class _GraphState:
    unified: np.ndarray
    views: List[EdgeList]    # one per meta-path, in row-major order
    sample_idx: np.ndarray


def _prepare_graph(g: HetGraph, cfg: TrainConfig, training: bool = False) -> _GraphState:
    """The per-graph inputs that pre-training and frozen embedding share.

    Meta-path views, struct table (unless ablated), unified attributes and
    the dimension-encoder node sample, all keyed by cfg.seed. The views come
    first, so training refuses an edgeless view before any table is trained, as a
    BundleError with no file; embedding takes one, as its operator is the identity.
    """
    if not g.metapaths:
        raise ValueError("graph declares no meta-paths")
    views = [metapath_edges(g, mp) for mp in g.metapaths]
    for mp, view in zip(g.metapaths, views):
        if training and len(view.rows) == 0:
            raise BundleError(f"meta-path '{mp.name}' has no instances: "
                              "pre-training needs an edge in every view", "")
    table = None
    if not cfg.no_cse:
        table = structenc.train_struct_table(g, cfg.walk, RngStream(cfg.seed, STRUCT))
    unified = structenc.unify_attrs(g, table).astype(COMPUTE)
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
            raise FloatingPointError(f"training diverged (non-finite loss) at epoch {epoch}")
        opt.step(grads)

        if trace is not None:
            l_recon = float(sum(b * l for b, l in zip(parts.beta, parts.view_losses)))
            trace.append({"epoch": epoch, "l_align": parts.l_align, "l_recon_weighted": l_recon,
                          "l_scatter": parts.l_scatter, "total": parts.total})

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

    Returns (fused embedding |V_target| x k, per-view attention weights), both float64.
    No masking at embedding time and no parameter updates of any kind. _forward, the
    pass objective runs, streams the unmasked views' operators: one is alive at a time.
    """
    return _embed_state(model, _prepare_graph(g, replace(model.cfg, seed=seed)))


def _embed_state(model: MugModel, state: _GraphState) -> Tuple[np.ndarray, np.ndarray]:
    params = {name: value.astype(COMPUTE) for name, value in model.params.items()}
    ops = (metamae.normalized_operator(view, state.unified.dtype) for view in state.views)
    *_, zs, beta = _forward(params, state, ops)
    return fuse(beta, zs), beta   # float64, as β is: no float32 copy is made


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
