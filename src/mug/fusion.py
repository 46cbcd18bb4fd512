"""Semantic attention over views, scattering regularizer, training loop, checkpoints.

The transferable parameter set is exactly what the checkpoint stores: the
dimension encoder, the shared graph-conv encoder, the decoder, and the
attention head. All shapes depend only on the unified dimension k, never on
a dataset's attribute width or view count. Structural embeddings are
retrained per graph and are deliberately absent.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from . import dimalign, metamae, structenc
from .hetgraph import HetGraph, all_views
from .metamae import GnnLayer, MaskSpec
from .rng import RngStream, STREAM_INIT, STREAM_MASK, STREAM_SAMPLE
from .structenc import WalkConfig

CHECKPOINT_MAGIC = "MUG-CKPT v1"


@dataclass
class Attention:
    q: np.ndarray   # k x 1
    weight: np.ndarray   # k x k
    bias: np.ndarray     # 1 x k


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

    def validate(self):
        for lam in (self.lambda_align, self.lambda_recon, self.lambda_scatter):
            if lam < 0:
                raise ValueError("loss weights must be >= 0")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer '{self.optimizer}'")
        self.walk.validate()
        self.mask.validate()


@dataclass
class MugModel:
    dim_encoder: dimalign.DimEncoder
    encoder: GnnLayer
    decoder: GnnLayer
    attention: Attention
    meta: Dict[str, str]

    @property
    def unified_dim(self) -> int:
        return self.dim_encoder.unified_dim


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
    centered = ad.add(z, ad.neg(ad.col_mean(z)))
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
    k, ns = cfg.unified_dim, cfg.sample_size
    specs = [
        ("dim.weight", ns, k), ("dim.bias", 1, k),
        ("enc.weight", k, k), ("enc.bias", 1, k),
        ("dec.weight", k, k), ("dec.bias", 1, k),
        ("att.q", k, 1), ("att.weight", k, k), ("att.bias", 1, k),
    ]
    params = {}
    for i, (name, fi, fo) in enumerate(specs):
        if name.endswith(".bias"):
            params[name] = np.zeros((fi, fo))
        else:
            params[name] = dimalign.glorot(RngStream(seed, STREAM_INIT + i), fi, fo)
    return params


def _params_to_model(params: Dict[str, np.ndarray], cfg: TrainConfig,
                     meta: Dict[str, str]) -> MugModel:
    return MugModel(
        dim_encoder=dimalign.DimEncoder(cfg.sample_size, cfg.unified_dim,
                                        params["dim.weight"].copy(),
                                        params["dim.bias"].copy()),
        encoder=GnnLayer(params["enc.weight"].copy(), params["enc.bias"].copy(),
                         "leaky_relu"),
        decoder=GnnLayer(params["dec.weight"].copy(), params["dec.bias"].copy(),
                         "identity"),
        attention=Attention(params["att.q"].copy(), params["att.weight"].copy(),
                            params["att.bias"].copy()),
        meta=meta,
    )


def _forward(params_nodes: Dict[str, ad.Node], unified: np.ndarray,
             sample_idx: np.ndarray, view_names: Sequence[str],
             targets: Sequence[np.ndarray], masked: Sequence[np.ndarray],
             cfg: TrainConfig):
    """One full differentiable pass; returns the loss nodes and view bundles."""
    basis = dimalign.basis_vectors(params_nodes["dim.weight"],
                                   params_nodes["dim.bias"], unified[sample_idx])
    l_align = dimalign.align_loss(basis)
    x_unify = dimalign.project(basis, unified)

    bundles = [
        metamae.autoencode_view(name, adj, m, x_unify,
                                params_nodes["enc.weight"], params_nodes["enc.bias"],
                                params_nodes["dec.weight"], params_nodes["dec.bias"],
                                cfg.gamma)
        for name, adj, m in zip(view_names, targets, masked)
    ]
    z_views = [vb.z for vb in bundles]
    beta = attention_weights(params_nodes["att.q"], params_nodes["att.weight"],
                             params_nodes["att.bias"], z_views)
    fused = fuse(beta, z_views)
    l_scatter = scatter_loss(fused)
    return l_align, beta, bundles, l_scatter, fused


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
    flat = {key: str(value) for key, _, _, value in config_fields(cfg)}
    return {"format": CHECKPOINT_MAGIC, **flat}


@dataclass
class _GraphState:
    unified: np.ndarray
    view_names: List[str]
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
    return _GraphState(unified=unified, view_names=list(views),
                       targets=list(views.values()), sample_idx=sample_idx)


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
                stream = RngStream(seed, STREAM_MASK + epoch * 64 + i)
                m, _ = metamae.mask_edges(adj, cfg.mask, stream)
                masked.append(m)

        nodes = {k: ad.leaf(v) for k, v in params.items()}
        try:
            l_align, beta, bundles, l_scatter, _ = _forward(
                nodes, state.unified, state.sample_idx, state.view_names,
                state.targets, masked, cfg)
            view_losses = [vb.loss for vb in bundles]
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

    return _params_to_model(params, cfg, config_echo(cfg))


def pretrain(g: HetGraph, cfg: TrainConfig,
             trace: Optional[List[Dict[str, float]]] = None) -> MugModel:
    """Full-batch pre-training on one graph; returns the transferable model.

    The per-epoch trace rows hold the loss parts; training aborts with the
    offending epoch if the loss goes non-finite.
    """
    cfg.validate()
    return _train(_prepare_graph(g, cfg), cfg, trace)


# -- frozen-encoder embedding ----------------------------------------------------


def _cfg_from_meta(meta: Dict[str, str]) -> TrainConfig:
    """Invert config_echo; a field missing from the meta keeps its default."""
    cfg = TrainConfig()
    for key, owner, name, default in config_fields(cfg):
        if key in meta:
            text = meta[key]
            setattr(owner, name, text == "True" if isinstance(default, bool)
                    else type(default)(text))
    return cfg


def embed(model: MugModel, g: HetGraph, seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Frozen transfer: retrain the struct table on g, apply frozen parameters.

    Returns (fused embedding |V_target| x k, per-view attention weights).
    No masking at embedding time and no parameter updates of any kind.
    """
    cfg = _cfg_from_meta(model.meta)
    cfg.seed = seed
    cfg.sample_size = model.dim_encoder.sample_size
    state = _prepare_graph(g, cfg)

    basis = dimalign.basis_vectors(ad.leaf(model.dim_encoder.weight),
                                   ad.leaf(model.dim_encoder.bias),
                                   state.unified[state.sample_idx])
    x_unify = dimalign.project(basis, state.unified)

    z_views = []
    for adj in state.targets:
        op = metamae.normalized_operator(adj)
        z_views.append(metamae.encode(op, x_unify, ad.leaf(model.encoder.weight),
                                      ad.leaf(model.encoder.bias)))
    beta = attention_weights(ad.leaf(model.attention.q),
                             ad.leaf(model.attention.weight),
                             ad.leaf(model.attention.bias), z_views)
    fused = fuse(beta, z_views)
    return fused.value.copy(), beta.value[:, 0].copy()


# -- checkpoint I/O ---------------------------------------------------------------


def _write_matrix(fh, name: str, mat: np.ndarray) -> None:
    fh.write(f"{name} {mat.shape[0]} {mat.shape[1]}\n")
    for row in mat:
        fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def save_checkpoint(model: MugModel, path: str) -> None:
    buf = io.StringIO()
    buf.write(CHECKPOINT_MAGIC + "\n")
    buf.write("[dimalign]\n")
    buf.write(f"sample_size {model.dim_encoder.sample_size}\n")
    buf.write(f"unified_dim {model.dim_encoder.unified_dim}\n")
    _write_matrix(buf, "weight", model.dim_encoder.weight)
    _write_matrix(buf, "bias", model.dim_encoder.bias)
    buf.write("[encoder]\n")
    buf.write(f"activation {model.encoder.activation}\n")
    _write_matrix(buf, "weight", model.encoder.weight)
    _write_matrix(buf, "bias", model.encoder.bias)
    buf.write("[decoder]\n")
    buf.write(f"activation {model.decoder.activation}\n")
    _write_matrix(buf, "weight", model.decoder.weight)
    _write_matrix(buf, "bias", model.decoder.bias)
    buf.write("[attention]\n")
    _write_matrix(buf, "q", model.attention.q)
    _write_matrix(buf, "weight", model.attention.weight)
    _write_matrix(buf, "bias", model.attention.bias)
    buf.write("[meta]\n")
    for key in sorted(model.meta):
        buf.write(f"{key} {model.meta[key]}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


class CheckpointError(ValueError):
    pass


def load_checkpoint(path: str) -> MugModel:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a '{CHECKPOINT_MAGIC}' checkpoint")

    sections: Dict[str, List[str]] = {}
    current = None
    for line in lines[1:]:
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
        elif current is None:
            raise CheckpointError(f"{path}: content before first section")
        else:
            sections[current].append(line)
    required = ("dimalign", "encoder", "decoder", "attention", "meta")
    for name in required:
        if name not in sections:
            raise CheckpointError(f"{path}: missing section [{name}]")

    def parse(title: str, section: List[str]) -> Dict[str, object]:
        out: Dict[str, object] = {}
        i = 0
        while i < len(section):
            parts = section[i].split(" ")
            if len(parts) == 3 and parts[1].isdigit() and parts[2].isdigit():
                name, r, c = parts[0], int(parts[1]), int(parts[2])
                where = f"{path}: [{title}] matrix '{name}'"
                if i + 1 + r > len(section):
                    raise CheckpointError(f"{where} is cut short")
                rows = [section[i + 1 + j].split(" ") for j in range(r)]
                for j, row in enumerate(rows):
                    if len(row) != c:
                        raise CheckpointError(
                            f"{where}: row {j + 1} has {len(row)} values, expected {c}")
                try:
                    mat = np.array([[float(v) for v in row] for row in rows])
                except ValueError as exc:
                    raise CheckpointError(f"{where}: {exc}") from None
                if mat.shape != (r, c):
                    raise CheckpointError(f"{where}: bad shape")
                out[name] = mat
                i += 1 + r
            else:
                out[parts[0]] = " ".join(parts[1:])
                i += 1
        return out

    parsed = {name: parse(name, sections[name]) for name in required}

    def get(section: str, key: str):
        if key not in parsed[section]:
            raise CheckpointError(f"{path}: [{section}] has no '{key}'")
        return parsed[section][key]

    def get_int(section: str, key: str) -> int:
        value = get(section, key)
        try:
            return int(value)
        except (TypeError, ValueError):
            raise CheckpointError(
                f"{path}: [{section}] '{key}' is not an integer") from None

    return MugModel(
        dim_encoder=dimalign.DimEncoder(get_int("dimalign", "sample_size"),
                                        get_int("dimalign", "unified_dim"),
                                        get("dimalign", "weight"), get("dimalign", "bias")),
        encoder=GnnLayer(get("encoder", "weight"), get("encoder", "bias"),
                         str(get("encoder", "activation"))),
        decoder=GnnLayer(get("decoder", "weight"), get("decoder", "bias"),
                         str(get("decoder", "activation"))),
        attention=Attention(get("attention", "q"), get("attention", "weight"),
                            get("attention", "bias")),
        meta={k: str(v) for k, v in parsed["meta"].items()},
    )
