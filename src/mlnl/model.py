"""Feed-forward multi-label classifier with shared logits and two readouts
(element-wise sigmoid and softmax), the asymmetric loss and its corrected
variant with analytic gradients, a seeded training loop, and a
finite-difference gradient checker.

Loss conventions. Per coordinate, with p clipped to [eps, 1-eps]:

    positive:  -(1 - p)^g_plus * log(p)
    negative:  -(p_m)^g_minus * log(1 - p_m),   p_m = max(p - margin, 0)

The per-sample loss sums coordinates; batches are averaged. The margin kink
at p == margin uses the zero branch, so the gradient there is exactly 0.
The corrected variant evaluates the same loss on q = M^T p for a fixed
correction matrix M, backpropagating through the linear map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import Dataset
from .metrics import MetricsReport, evaluate
from .noise import CorruptionMatrix
from .numerics import RandomStream, sigmoid, softmax

_ACTIVATIONS = ("tanh", "relu")


@dataclass(eq=False)
class MlpModel:
    weights: list[np.ndarray]  # each (out, in)
    biases: list[np.ndarray]   # each (out,)
    activation: str = "tanh"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must pair up")
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError("parameter shapes do not chain")
        for a, b in zip(self.weights[:-1], self.weights[1:]):
            if b.shape[1] != a.shape[0]:
                raise ValueError("layer shapes do not chain")

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[0]

    def copy(self) -> "MlpModel":
        return MlpModel([w.copy() for w in self.weights],
                        [b.copy() for b in self.biases], self.activation)


def init_model(layer_sizes, activation: str = "tanh", scale: float = 1.0,
               seed: int = 0) -> MlpModel:
    """Seeded Gaussian init, scaled by `scale`/sqrt(fan_in); zero biases."""
    sizes = list(layer_sizes)
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    stream = RandomStream(seed).derive("init")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = stream.normal(fan_out * fan_in).reshape(fan_out, fan_in)
        weights.append(w * (scale / np.sqrt(fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases, activation)


@dataclass(frozen=True)
class AslParams:
    gamma_plus: float = 0.0
    gamma_minus: float = 4.0
    margin: float = 0.05
    clamp_eps: float = 1e-7

    def validate(self):
        if self.gamma_plus < 0 or self.gamma_minus < 0:
            raise ValueError("focusing parameters must be >= 0")
        if not 0.0 <= self.margin < 1.0:
            raise ValueError("margin must be in [0, 1)")
        if not 0.0 < self.clamp_eps <= 1e-3:
            raise ValueError("clamp_eps must be in (0, 1e-3]")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    batch_size: int = 64
    lr: float = 1e-3
    optimizer: str = "adam"  # "adam" (adaptive-moment) or "sgd"
    init_scale: float = 1.0
    seed: int = 0

    def validate(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.lr < 0:
            raise ValueError("learning rate must be >= 0")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class CorrectedMode:
    """Loss mode for corrected training: silver rows fit M^T p, gold rows plain."""

    matrix: np.ndarray
    gold_mask: np.ndarray | None = None  # bool per sample; None = all silver
    normalize: bool = False              # row-normalize M before use

    def effective_matrix(self, k: int) -> np.ndarray:
        m = self.matrix.matrix if isinstance(self.matrix, CorruptionMatrix) else self.matrix
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (k, k):
            raise ValueError(f"correction matrix shape {m.shape} does not match K={k}")
        if self.normalize:
            sums = m.sum(axis=1, keepdims=True)
            safe = np.where(sums > 0, sums, 1.0)
            m = np.where(sums > 0, m / safe, 1.0 / k)
        return m


@dataclass
class EpochStats:
    epoch: int
    loss: float
    report: MetricsReport


@dataclass
class ForwardResult:
    logits: np.ndarray
    p_sig: np.ndarray
    p_soft: np.ndarray


def forward(model: MlpModel, x) -> ForwardResult:
    """Logits plus both readouts; accepts a single sample or a batch."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.shape[1] != model.layer_sizes[0]:
        raise ValueError(f"expected {model.layer_sizes[0]} features, got {a.shape[1]}")
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ w.T + b
        a = np.tanh(z) if model.activation == "tanh" else np.maximum(z, 0.0)
    logits = a @ model.weights[-1].T + model.biases[-1]
    p_sig = sigmoid(logits)
    p_soft = softmax(logits, axis=-1)
    if single:
        return ForwardResult(logits[0], p_sig[0], p_soft[0])
    return ForwardResult(logits, p_sig, p_soft)


def _clip(p: np.ndarray, eps: float) -> np.ndarray:
    return np.clip(p, eps, 1.0 - eps)


def _asl_terms(pc: np.ndarray, y: np.ndarray, params: AslParams) -> np.ndarray:
    """Per-coordinate loss on already-clipped probabilities."""
    gp, gm, m, eps = params.gamma_plus, params.gamma_minus, params.margin, params.clamp_eps
    pos = -np.power(1.0 - pc, gp) * np.log(pc)
    pm = np.minimum(np.maximum(pc - m, 0.0), 1.0 - eps)
    neg = -np.power(pm, gm) * np.log1p(-pm)  # 0**0 == 1 covers gamma_minus = 0
    return y * pos + (1.0 - y) * neg


def _asl_dloss_dpc(pc: np.ndarray, y: np.ndarray, params: AslParams) -> np.ndarray:
    """d(loss)/d(clipped probability), with the zero branch below the margin."""
    gp, gm, m = params.gamma_plus, params.gamma_minus, params.margin
    one_m_p = 1.0 - pc
    dpos = -np.power(one_m_p, gp) / pc
    if gp != 0.0:
        dpos = dpos + gp * np.power(one_m_p, gp - 1.0) * np.log(pc)
    pm = np.maximum(pc - m, 0.0)
    active = pc > m
    safe_pm = np.where(active, pm, 0.5)  # placeholder where masked out
    dneg = np.where(active, np.power(safe_pm, gm) / (1.0 - safe_pm), 0.0)
    if gm != 0.0:
        dneg = dneg - np.where(
            active, gm * np.power(safe_pm, gm - 1.0) * np.log1p(-safe_pm), 0.0)
    return y * dpos + (1.0 - y) * dneg


def asl_loss(p_sig, y, params: AslParams):
    """Asymmetric loss summed over classes; batched input returns per-row sums."""
    params.validate()
    p = np.asarray(p_sig, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    pc = _clip(p, params.clamp_eps)
    per = _asl_terms(pc, yv, params).sum(axis=-1)
    return float(per) if per.ndim == 0 else per


def asl_grad(logits, y, params: AslParams):
    """Analytic gradient of asl_loss(sigmoid(logits), y) w.r.t. the logits."""
    params.validate()
    z = np.asarray(logits, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    p = sigmoid(z)
    pc = _clip(p, params.clamp_eps)
    mask = (p > params.clamp_eps) & (p < 1.0 - params.clamp_eps)
    return _asl_dloss_dpc(pc, yv, params) * mask * p * (1.0 - p)


def corrected_loss(c_hat, logits, y_noisy, params: AslParams,
                   normalize: bool = False):
    """Loss and logit gradient of the corrected objective L(M^T sigmoid(z), y).

    `normalize` divides each row of the correction matrix by its sum first
    (the row-normalized variant); by default q is only clipped.
    """
    params.validate()
    z = np.asarray(logits, dtype=np.float64)
    yv = np.asarray(y_noisy, dtype=np.float64)
    single = z.ndim == 1
    zb = z[None, :] if single else z
    yb = yv[None, :] if single else yv
    k = zb.shape[1]
    mode = CorrectedMode(c_hat, normalize=normalize)
    m = mode.effective_matrix(k)

    p = sigmoid(zb)
    q_raw = p @ m
    qc = _clip(q_raw, params.clamp_eps)
    loss = _asl_terms(qc, yb, params).sum(axis=-1)
    mask = (q_raw > params.clamp_eps) & (q_raw < 1.0 - params.clamp_eps)
    dq = _asl_dloss_dpc(qc, yb, params) * mask
    grad = (dq @ m.T) * p * (1.0 - p)
    if single:
        return float(loss[0]), grad[0]
    return loss, grad


def _hidden_forward(model: MlpModel, x: np.ndarray):
    acts = [x]
    pre = []
    a = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ w.T + b
        pre.append(z)
        a = np.tanh(z) if model.activation == "tanh" else np.maximum(z, 0.0)
        acts.append(a)
    logits = a @ model.weights[-1].T + model.biases[-1]
    return acts, pre, logits


def _loss_and_grads(model: MlpModel, x: np.ndarray, y: np.ndarray,
                    params: AslParams, mode) -> tuple[float, list, list]:
    """Mean batch loss plus parameter gradients; `mode` is "asl" or CorrectedMode."""
    acts, pre, logits = _hidden_forward(model, x)
    p = sigmoid(logits)
    n = x.shape[0]

    if isinstance(mode, CorrectedMode):
        m = mode.effective_matrix(logits.shape[1])
        gold = (np.zeros(n, dtype=bool) if mode.gold_mask is None
                else np.asarray(mode.gold_mask, dtype=bool))
        eff = p.copy()
        silver = ~gold
        if silver.any():
            eff[silver] = p[silver] @ m
    else:
        eff = p

    effc = _clip(eff, params.clamp_eps)
    loss_rows = _asl_terms(effc, y, params).sum(axis=-1)
    mask = (eff > params.clamp_eps) & (eff < 1.0 - params.clamp_eps)
    d_eff = _asl_dloss_dpc(effc, y, params) * mask
    if isinstance(mode, CorrectedMode):
        dp = d_eff.copy()
        if silver.any():
            dp[silver] = d_eff[silver] @ m.T
    else:
        dp = d_eff
    delta = dp * p * (1.0 - p) / n

    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    grads_w[-1] = delta.T @ acts[-1]
    grads_b[-1] = delta.sum(axis=0)
    back = delta
    for l in range(len(model.weights) - 2, -1, -1):
        back = back @ model.weights[l + 1]
        if model.activation == "tanh":
            back = back * (1.0 - np.tanh(pre[l]) ** 2)
        else:
            back = back * (pre[l] > 0)
        grads_w[l] = back.T @ acts[l]
        grads_b[l] = back.sum(axis=0)
    return float(loss_rows.mean()), grads_w, grads_b


def _batch_loss(model: MlpModel, x: np.ndarray, y: np.ndarray,
                params: AslParams, mode) -> float:
    _, _, logits = _hidden_forward(model, x)
    p = sigmoid(logits)
    if isinstance(mode, CorrectedMode):
        m = mode.effective_matrix(logits.shape[1])
        gold = (np.zeros(x.shape[0], dtype=bool) if mode.gold_mask is None
                else np.asarray(mode.gold_mask, dtype=bool))
        eff = p.copy()
        if (~gold).any():
            eff[~gold] = p[~gold] @ m
    else:
        eff = p
    return float(_asl_terms(_clip(eff, params.clamp_eps), y, params).sum(axis=-1).mean())


class _Adam:
    def __init__(self, shapes, lr):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, tensors, grads):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for i, (th, g) in enumerate(zip(tensors, grads)):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            th -= self.lr * (self.m[i] / c1) / (np.sqrt(self.v[i] / c2) + eps)


def train(model: MlpModel, data: Dataset, loss_mode, cfg: TrainConfig,
          params: AslParams | None = None,
          eval_data: Dataset | None = None) -> tuple[MlpModel, list[EpochStats]]:
    """Mini-batch training with a seeded shuffle per epoch.

    `loss_mode` is "asl" or a CorrectedMode whose gold_mask marks trusted
    samples (trained with plain asymmetric loss against their own labels).
    Always returns the last-epoch model; per-epoch reports are computed on
    `eval_data` when given, otherwise on the training data.
    """
    cfg.validate()
    params = params or AslParams()
    params.validate()
    model = model.copy()
    x = data.features
    y = data.labels.astype(np.float64)
    n = x.shape[0]
    shuffle_stream = RandomStream(cfg.seed).derive("shuffle")

    opt = None
    if cfg.optimizer == "adam":
        shapes = [w.shape for w in model.weights] + [b.shape for b in model.biases]
        opt = _Adam(shapes, cfg.lr)

    gold_mask = None
    if isinstance(loss_mode, CorrectedMode) and loss_mode.gold_mask is not None:
        gold_mask = np.asarray(loss_mode.gold_mask, dtype=bool)
        if gold_mask.shape != (n,):
            raise ValueError("gold_mask must have one entry per training sample")

    history: list[EpochStats] = []
    ev_x = eval_data.features if eval_data is not None else x
    ev_y = eval_data.labels if eval_data is not None else data.labels

    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_stream.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            if isinstance(loss_mode, CorrectedMode):
                batch_mode = CorrectedMode(loss_mode.matrix,
                                           gold_mask[idx] if gold_mask is not None else None,
                                           loss_mode.normalize)
            else:
                batch_mode = "asl"
            loss, gw, gb = _loss_and_grads(model, x[idx], y[idx], params, batch_mode)
            if not np.isfinite(loss):
                raise ValueError(f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size + 1}")
            total += loss * len(idx)
            if opt is not None:
                opt.step(model.weights + model.biases, gw + gb)
            else:
                for w, g in zip(model.weights, gw):
                    w -= cfg.lr * g
                for b, g in zip(model.biases, gb):
                    b -= cfg.lr * g
        scores = forward(model, ev_x).p_sig
        report = evaluate(scores, ev_y)
        history.append(EpochStats(epoch=epoch, loss=total / n, report=report))
    return model, history


def _flatten_params(model: MlpModel) -> np.ndarray:
    return np.concatenate([t.ravel() for t in model.weights + model.biases])


def _unflatten_into(model: MlpModel, vec: np.ndarray) -> None:
    off = 0
    for t in model.weights + model.biases:
        t[...] = vec[off:off + t.size].reshape(t.shape)
        off += t.size


def gradient_check(model: MlpModel, features, labels, params: AslParams,
                   mode="asl", h: float = 1e-5) -> float:
    """Max guarded relative error of analytic vs central-difference gradients.

    Perturbs every parameter of the model; the batch is capped at 32 samples.
    """
    x = np.asarray(features, dtype=np.float64)[:32]
    y = np.asarray(labels, dtype=np.float64)[:32]
    _, gw, gb = _loss_and_grads(model, x, y, params, mode)
    analytic = np.concatenate([g.ravel() for g in gw + gb])

    probe = model.copy()
    theta = _flatten_params(probe)
    fd = np.empty_like(analytic)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        _unflatten_into(probe, theta)
        lp = _batch_loss(probe, x, y, params, mode)
        theta[i] = orig - h
        _unflatten_into(probe, theta)
        lm = _batch_loss(probe, x, y, params, mode)
        theta[i] = orig
        fd[i] = (lp - lm) / (2.0 * h)
    _unflatten_into(probe, theta)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
    return float(np.max(np.abs(analytic - fd) / denom))


def save_model(model: MlpModel, path) -> None:
    """Text checkpoint: header `MLPM v1 <d> <h..> <K> <activation>`, then per
    layer the weight rows followed by one bias line, round-trip exact."""
    sizes = " ".join(str(s) for s in model.layer_sizes)
    lines = [f"MLPM v1 {sizes} {model.activation}"]
    for w, b in zip(model.weights, model.biases):
        for row in w:
            lines.append(" ".join("%.17g" % v for v in row))
        lines.append(" ".join("%.17g" % v for v in b))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> MlpModel:
    """Read a `save_model` checkpoint; malformed, truncated or overlong files
    raise ValueError citing `path:line`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(lno, ln) for lno, ln in enumerate(fh.read().splitlines(), start=1)
                 if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty checkpoint")
    head_lno, head_line = lines[0]
    head = head_line.split()
    if len(head) < 5 or head[0] != "MLPM" or head[1] != "v1":
        raise ValueError(f"{path}:{head_lno}: malformed checkpoint header")
    activation = head[-1]
    if activation not in _ACTIVATIONS:
        raise ValueError(f"{path}:{head_lno}: unknown activation {activation!r}")
    try:
        sizes = [int(t) for t in head[2:-1]]
    except ValueError:
        raise ValueError(f"{path}:{head_lno}: layer sizes must be integers") from None
    if min(sizes) < 1:
        raise ValueError(f"{path}:{head_lno}: layer sizes must be >= 1")

    rows = iter(lines[1:])
    end_lno = lines[-1][0] + 1

    def parameter_row(width: int) -> list[float]:
        lno, text = next(rows, (end_lno, None))
        if text is None:
            raise ValueError(f"{path}:{lno}: checkpoint ends before its last bias line")
        try:
            values = [float(t) for t in text.split()]
        except ValueError:
            raise ValueError(f"{path}:{lno}: unparsable parameter value") from None
        if len(values) != width:
            raise ValueError(f"{path}:{lno}: expected {width} values, got {len(values)}")
        return values

    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(np.array([parameter_row(fan_in) for _ in range(fan_out)]))
        biases.append(np.array(parameter_row(fan_out)))
    extra = next(rows, None)
    if extra is not None:
        raise ValueError(f"{path}:{extra[0]}: data after the last bias line")
    return MlpModel(weights, biases, activation)
