"""Semantic attention over views, scattering regularizer, training loop, checkpoints.

A MugModel is its named parameters plus the TrainConfig they were trained
with. param_shapes names them: the dimension encoder, the encoder shared by
every view, the decoder and the attention head. Their shapes depend only on
the sample size and the unified dimension k, never on a dataset's attribute
width or view count. Structural embeddings are retrained per graph and are
not part of the model.

Checkpoint format (UTF-8 text):

    MUG-CKPT v2
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

from . import autodiff as ad
from . import dimalign, metamae, structenc
from .bundle import read_text
from .hetgraph import HetGraph, all_views
from .metamae import MaskSpec
from .rng import RngStream, STREAM_INIT, STREAM_MASK, STREAM_SAMPLE
from .structenc import WalkConfig

CHECKPOINT_MAGIC = "MUG-CKPT v2"


@dataclass
class TrainConfig:
    lambda_align: float = 1.0
    lambda_recon: float = 1.0
    lambda_scatter: float = 0.1
    epochs: int = 400
    learning_rate: float = 1e-3
    optimizer: str = "adam"          # or "sgd"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
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
        if self.epochs * n_views >= 1 << 32:
            raise ValueError(f"epochs x views must be < 2**32 to key the mask streams, "
                             f"got {self.epochs} x {n_views}")
        for lam in (self.lambda_align, self.lambda_recon, self.lambda_scatter):
            if lam < 0:
                raise ValueError("loss weights must be >= 0")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer '{self.optimizer}'")
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


class DivergenceError(ad.NumericsError):
    def __init__(self, epoch: int):
        super().__init__(f"training diverged (non-finite loss) at epoch {epoch}")
        self.epoch = epoch


# -- attention / fusion / losses ----------------------------------------------


def attention_scores(q: ad.Node, weight: ad.Node, bias: ad.Node,
                     views: Sequence[ad.Node]) -> List[ad.Node]:
    """Per-view scalar: node-mean of qᵀ tanh(z W + b)."""
    out = []
    for z in views:
        t = ad.tanh(ad.add(ad.matmul(z, weight), bias))
        out.append(ad.mean_all(ad.matmul(t, q)))
    return out


def attention_weights(q: ad.Node, weight: ad.Node, bias: ad.Node,
                      views: Sequence[ad.Node]) -> ad.Node:
    """Softmax over the per-view scores; an Lx1 node summing to one."""
    if not views:
        raise ValueError("need at least one view")
    return ad.softmax(ad.stack_scalars(attention_scores(q, weight, bias, views)))


def fuse(beta: ad.Node, views: Sequence[ad.Node]) -> ad.Node:
    """Convex combination of the view embeddings."""
    if beta.shape[0] != len(views):
        raise ad.ShapeError(f"{beta.shape[0]} weights for {len(views)} views")
    acc = ad.mul(views[0], ad.take(beta, 0))
    for i in range(1, len(views)):
        acc = ad.add(acc, ad.mul(views[i], ad.take(beta, i)))
    return acc


def scatter_loss(z: ad.Node) -> ad.Node:
    """Negative mean squared distance to the embedding centroid."""
    n = z.shape[0]
    centered = ad.add(z, ad.smul(ad.col_mean(z), -1.0))
    return ad.smul(ad.sum_all(ad.power(centered, 2.0)), -1.0 / n)


def total_loss(l_align: ad.Node, beta: ad.Node, view_losses: Sequence[ad.Node],
               l_scatter: ad.Node, cfg: TrainConfig) -> ad.Node:
    """lambda1 * align + lambda2 * sum(beta * per-view) + lambda3 * scatter."""
    recon = ad.sum_all(ad.mul(beta, ad.stack_scalars(view_losses)))
    lam1 = 0.0 if cfg.no_align else cfg.lambda_align
    lam3 = 0.0 if cfg.no_scatter else cfg.lambda_scatter
    return ad.add(ad.add(ad.smul(l_align, lam1), ad.smul(recon, cfg.lambda_recon)),
                  ad.smul(l_scatter, lam3))


# -- optimizer ------------------------------------------------------------------


class Optimizer:
    def __init__(self, params: Dict[str, np.ndarray], cfg: TrainConfig,
                 trainable: Sequence[str]):
        self.params = params
        self.cfg = cfg
        self.trainable = list(trainable)
        self.t = 0
        self.m = {k: np.zeros_like(params[k]) for k in self.trainable}
        self.v = {k: np.zeros_like(params[k]) for k in self.trainable}

    def step(self, grads: Dict[str, np.ndarray]) -> None:
        cfg = self.cfg
        self.t += 1
        for k in self.trainable:
            g = grads[k]
            if cfg.optimizer == "sgd":
                self.params[k] -= cfg.learning_rate * g
                continue
            self.m[k] = cfg.adam_beta1 * self.m[k] + (1 - cfg.adam_beta1) * g
            self.v[k] = cfg.adam_beta2 * self.v[k] + (1 - cfg.adam_beta2) * g * g
            m_hat = self.m[k] / (1 - cfg.adam_beta1**self.t)
            v_hat = self.v[k] / (1 - cfg.adam_beta2**self.t)
            self.params[k] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


# -- pre-training ----------------------------------------------------------------


def _init_params(cfg: TrainConfig, seed: int) -> Dict[str, np.ndarray]:
    params = {}
    for i, (name, shape) in enumerate(param_shapes(cfg)):
        if name.endswith(".bias"):
            params[name] = np.zeros(shape)
        else:
            params[name] = dimalign.glorot(RngStream(seed, STREAM_INIT + i), *shape)
    return params


def _forward(params_nodes: Dict[str, ad.Node], unified: np.ndarray,
             sample_idx: np.ndarray, targets: Sequence[np.ndarray],
             masked: Sequence[np.ndarray], cfg: TrainConfig):
    """One full differentiable pass: (l_align, beta, per-view losses, l_scatter)."""
    basis = dimalign.basis_vectors(params_nodes["dim.weight"],
                                   params_nodes["dim.bias"], unified[sample_idx])
    l_align = dimalign.align_loss(basis)
    x_unify = dimalign.project(basis, unified)

    views = [
        metamae.autoencode_view(adj, m, x_unify,
                                params_nodes["enc.weight"], params_nodes["enc.bias"],
                                params_nodes["dec.weight"], params_nodes["dec.bias"],
                                cfg.gamma)
        for adj, m in zip(targets, masked)
    ]
    z_views = [z for z, _ in views]
    beta = attention_weights(params_nodes["att.q"], params_nodes["att.weight"],
                             params_nodes["att.bias"], z_views)
    l_scatter = scatter_loss(fuse(beta, z_views))
    return l_align, beta, [loss for _, loss in views], l_scatter


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
    targets: List[np.ndarray]
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
    views = all_views(g)
    sample_idx = dimalign.draw_node_sample(
        g.counts[g.target_type], cfg.sample_size, RngStream(cfg.seed, STREAM_SAMPLE))
    return _GraphState(unified=unified, targets=list(views.values()),
                       sample_idx=sample_idx)


def _train(state: _GraphState, cfg: TrainConfig,
           trace: Optional[List[Dict[str, float]]]) -> MugModel:
    seed = cfg.seed
    params = _init_params(cfg, seed)
    trainable = [k for k in params
                 if not (cfg.no_align and k.startswith("dim."))]
    opt = Optimizer(params, cfg, trainable)

    masked = None
    for epoch in range(cfg.epochs):
        if cfg.mask.resample_per_epoch or masked is None:
            masked = []
            for i, adj in enumerate(state.targets):
                stream = RngStream(seed, STREAM_MASK + epoch * len(state.targets) + i)
                masked.append(metamae.mask_edges(adj, cfg.mask, stream))

        nodes = {k: ad.leaf(v) for k, v in params.items()}
        try:
            l_align, beta, view_losses, l_scatter = _forward(
                nodes, state.unified, state.sample_idx, state.targets, masked, cfg)
            loss = total_loss(l_align, beta, view_losses, l_scatter, cfg)
        except ad.NumericsError:
            raise DivergenceError(epoch)
        if not np.isfinite(loss.value[0, 0]):
            raise DivergenceError(epoch)
        ad.backward(loss)
        opt.step({k: n.grad for k, n in nodes.items()})

        if trace is not None:
            recon_w = float(sum(b * l.value[0, 0] for b, l in
                                zip(beta.value[:, 0], view_losses)))
            trace.append({
                "epoch": epoch,
                "l_align": 0.0 if cfg.no_align else float(l_align.value[0, 0]),
                "l_recon_weighted": recon_w,
                "l_scatter": 0.0 if cfg.no_scatter else float(l_scatter.value[0, 0]),
                "total": float(loss.value[0, 0]),
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
    p = {name: ad.leaf(value) for name, value in model.params.items()}
    basis = dimalign.basis_vectors(p["dim.weight"], p["dim.bias"],
                                   state.unified[state.sample_idx])
    x_unify = dimalign.project(basis, state.unified)
    z_views = [metamae.encode(metamae.normalized_operator(adj), x_unify,
                              p["enc.weight"], p["enc.bias"])
               for adj in state.targets]
    beta = attention_weights(p["att.q"], p["att.weight"], p["att.bias"], z_views)
    fused = fuse(beta, z_views)
    return fused.value.copy(), beta.value[:, 0].copy()


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
