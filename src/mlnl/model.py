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

Training keeps every parameter in one flat float64 buffer (the layers are
views into it), runs one fused loss-and-gradient pass per batch and one
Adam update over the whole buffer. Every element goes through the same
float operations in the same order as a per-layer, per-term formulation,
so results are bit-reproducible across refactors (tests pin the bytes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
        if not (self.gamma_plus >= 0 and self.gamma_minus >= 0):  # NaN fails both
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
    """Logits and the sigmoid readout; the softmax readout is computed on first read."""

    logits: np.ndarray
    p_sig: np.ndarray

    @cached_property
    def p_soft(self) -> np.ndarray:
        return softmax(self.logits, axis=-1)


def _layers(model: MlpModel, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The batch `x` followed by each hidden layer's output, and the logits."""
    acts = [x]
    tanh = model.activation == "tanh"
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = acts[-1] @ w.T
        z += b
        acts.append(np.tanh(z, out=z) if tanh else np.maximum(z, 0.0, out=z))
    logits = acts[-1] @ model.weights[-1].T
    logits += model.biases[-1]
    return acts, logits


def forward(model: MlpModel, x) -> ForwardResult:
    """Logits plus both readouts; accepts a single sample or a batch."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.shape[1] != model.weights[0].shape[1]:
        raise ValueError(f"expected {model.weights[0].shape[1]} features, got {a.shape[1]}")
    logits = _layers(model, a)[1]
    if single:
        logits = logits[0]
    return ForwardResult(logits, sigmoid(logits))


def _asl_terms_and_slopes(eff: np.ndarray, y: np.ndarray, params: AslParams,
                          slopes: bool = True):
    """Per-coordinate asymmetric loss of the probabilities `eff` against the
    boolean labels `y`, and (when `slopes`) its derivative w.r.t. `eff`,
    which is 0 where the clamp to [eps, 1-eps] is active.

    Loss and derivative share the clamp, log(p), p_m, log(1 - p_m) and
    pow(p_m, g_minus). Every coordinate gets the same bits as the per-term
    forms `y*pos + (1-y)*neg` and `y*dpos + (1-y)*dneg` on y in {0, 1}:
    pos > 0 and neg, dneg >= +0.0, so the term multiplied by 0 drops out
    exactly; only dpos < 0 can underflow to -0.0 (when g_plus > 0), which
    the form's `+ 0*dneg` turns into +0.0.
    """
    gp, gm, margin, eps = params.gamma_plus, params.gamma_minus, params.margin, params.clamp_eps
    hi = 1.0 - eps
    pc = np.maximum(eff, eps)
    np.minimum(pc, hi, out=pc)
    log_pc = np.log(pc)
    if gp == 0.0:
        pos = log_pc  # -pow(1 - p, 0) * log(p), negated below
    else:
        one_m_p = 1.0 - pc
        w_pos = np.power(one_m_p, gp)
        pos = w_pos * log_pc
    pm = pc - margin  # below 1 - eps already, so the upper clamp is a no-op
    np.maximum(pm, 0.0, out=pm)
    pw = np.power(pm, gm)  # 0**0 == 1 covers gamma_minus = 0
    l1p = np.log1p(np.negative(pm))
    terms = np.where(y, pos, pw * l1p)
    np.negative(terms, out=terms)
    if not slopes:
        return terms, None

    if gp == 0.0:
        dpos = np.divide(-1.0, pc)
    else:
        dpos = np.negative(w_pos) / pc
        dpos += gp * np.power(one_m_p, gp - 1.0) * log_pc
        dpos += 0.0  # -0.0 -> +0.0, as y*dpos + (1-y)*dneg gives
    dneg = pw / (1.0 - pm)  # +0 below the margin when gamma_minus > 0
    if gm == 0.0:
        dneg = np.where(pc > margin, dneg, 0.0)
    else:
        # the 0.5 placeholder keeps pow(0, g_minus - 1) finite for g_minus < 1;
        # below the margin the subtracted term is -0.0 either way
        base = pm if gm >= 1.0 else np.where(pc > margin, pm, 0.5)
        dneg -= gm * np.power(base, gm - 1.0) * l1p
    d = np.where(y, dpos, dneg)
    unclamped = eff > eps
    unclamped &= eff < hi
    np.multiply(d, unclamped, out=d)
    return terms, d


def _binary(y) -> np.ndarray:
    yv = np.asarray(y)
    yb = yv.astype(bool)
    if not np.array_equal(yb, yv):
        raise ValueError("labels must be 0 or 1")
    return yb


def asl_loss(p_sig, y, params: AslParams):
    """Asymmetric loss summed over classes; batched input returns per-row sums."""
    params.validate()
    p = np.asarray(p_sig, dtype=np.float64)
    terms, _ = _asl_terms_and_slopes(p, _binary(y), params, slopes=False)
    per = terms.sum(axis=-1)
    return float(per) if per.ndim == 0 else per


def asl_grad(logits, y, params: AslParams):
    """Analytic gradient of asl_loss(sigmoid(logits), y) w.r.t. the logits."""
    params.validate()
    p = sigmoid(np.asarray(logits, dtype=np.float64))
    _, d = _asl_terms_and_slopes(p, _binary(y), params)
    return d * p * (1.0 - p)


def corrected_loss(c_hat, logits, y_noisy, params: AslParams,
                   normalize: bool = False):
    """Loss and logit gradient of the corrected objective L(M^T sigmoid(z), y).

    `normalize` divides each row of the correction matrix by its sum first
    (the row-normalized variant); by default q is only clipped.
    """
    params.validate()
    z = np.asarray(logits, dtype=np.float64)
    yv = _binary(y_noisy)
    single = z.ndim == 1
    zb = z[None, :] if single else z
    yb = yv[None, :] if single else yv
    m = CorrectedMode(c_hat, normalize=normalize).effective_matrix(zb.shape[1])

    p = sigmoid(zb)
    terms, dq = _asl_terms_and_slopes(p @ m, yb, params)
    loss = terms.sum(axis=-1)
    grad = (dq @ m.T) * p * (1.0 - p)
    if single:
        return float(loss[0]), grad[0]
    return loss, grad


def _split(buf: np.ndarray, model: MlpModel) -> tuple[list, list]:
    """Views of `buf` shaped like the model's weights, then its biases."""
    views, off = [], 0
    for t in model.weights + model.biases:
        views.append(buf[off:off + t.size].reshape(t.shape))
        off += t.size
    n = len(model.weights)
    return views[:n], views[n:]


class _Objective:
    """Mean batch loss of a model, plain or corrected, and its gradient.

    The parameters live in one flat buffer `theta` (weights, then biases);
    `model` is made of views into it and `grad` has the same layout. This
    one forward-and-loss pass serves the trainer, which also fills `grad`,
    and the finite-difference checker, which perturbs `theta` in place.
    """

    def __init__(self, model: MlpModel, params: AslParams, mode):
        self.theta = np.concatenate([t.ravel() for t in model.weights + model.biases])
        self.model = MlpModel(*_split(self.theta, model), model.activation)
        self.grad = np.empty_like(self.theta)
        self.grad_w, self.grad_b = _split(self.grad, model)
        self.tanh = model.activation == "tanh"
        self.params = params
        self.m = None
        if isinstance(mode, CorrectedMode):
            self.m = mode.effective_matrix(model.num_classes)
            self.mt = self.m.T

    def loss(self, x: np.ndarray, y: np.ndarray, silver: np.ndarray | None = None,
             backward: bool = True) -> float:
        """Mean loss of the batch (`y` boolean). In corrected mode the rows
        indexed by `silver` fit M^T p and the others, the gold rows, fit
        their own labels; `silver=None` makes every row silver. With
        `backward`, also fills `grad`."""
        acts, logits = _layers(self.model, x)
        p = sigmoid(logits)

        m = self.m
        if m is None:
            eff = p
        elif silver is None:
            eff = p @ m
        else:
            # the silver rows alone: BLAS may round a row of a smaller product differently
            eff = p.copy()
            if silver.size:
                eff[silver] = p[silver] @ m
        terms, d_eff = _asl_terms_and_slopes(eff, y, self.params, backward)
        n = x.shape[0]
        loss = float(np.add.reduce(np.add.reduce(terms, axis=1))) / n
        if not backward:
            return loss

        if m is None:
            dp = d_eff
        elif silver is None:
            dp = d_eff @ self.mt
        else:
            dp = d_eff.copy()
            if silver.size:
                dp[silver] = d_eff[silver] @ self.mt
        back = dp * p
        back *= 1.0 - p
        back /= n
        for l in range(len(acts) - 1, -1, -1):
            np.matmul(back.T, acts[l], out=self.grad_w[l])
            np.add.reduce(back, axis=0, out=self.grad_b[l])
            if l:
                back = back @ self.model.weights[l]
                a = acts[l]
                if self.tanh:
                    slope = a * a
                    np.subtract(1.0, slope, out=slope)
                    back *= slope
                else:
                    back *= a > 0
        return loss


def train(model: MlpModel, data: Dataset, loss_mode, cfg: TrainConfig,
          params: AslParams | None = None,
          eval_data: Dataset | None = None) -> tuple[MlpModel, list[EpochStats]]:
    """Mini-batch training with a seeded shuffle per epoch.

    `loss_mode` is "asl" or a CorrectedMode whose gold_mask marks trusted
    samples (trained with plain asymmetric loss against their own labels).
    Always returns the last-epoch model; per-epoch reports are computed on
    `eval_data` when given, otherwise on the training data. A non-finite
    batch loss, or non-finite parameters or evaluation scores after an
    epoch, raise ValueError.
    """
    cfg.validate()
    params = params or AslParams()
    params.validate()
    x = data.features
    y = data.labels.astype(bool)
    n = x.shape[0]
    shuffle_stream = RandomStream(cfg.seed).derive("shuffle")

    gold_mask = None
    if isinstance(loss_mode, CorrectedMode) and loss_mode.gold_mask is not None:
        gold_mask = np.asarray(loss_mode.gold_mask, dtype=bool)
        if gold_mask.shape != (n,):
            raise ValueError("gold_mask must have one entry per training sample")
    objective = _Objective(model, params, loss_mode)
    theta, grad = objective.theta, objective.grad
    adam = cfg.optimizer == "adam"
    if adam:
        b1, b2, adam_eps = 0.9, 0.999, 1e-8
        mom, vel = np.zeros_like(theta), np.zeros_like(theta)
        tmp, den = np.empty_like(theta), np.empty_like(theta)
        t = 0

    history: list[EpochStats] = []
    ev_x = eval_data.features if eval_data is not None else x
    ev_y = eval_data.labels if eval_data is not None else data.labels

    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_stream.permutation(n)
        xs, ys = x[perm], y[perm]
        gs = gold_mask[perm] if gold_mask is not None else None
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            stop = min(start + cfg.batch_size, n)
            silver = None if gs is None else (~gs[start:stop]).nonzero()[0]
            loss = objective.loss(xs[start:stop], ys[start:stop], silver)
            if not math.isfinite(loss):
                raise ValueError(f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size + 1}")
            total += loss * (stop - start)
            if adam:
                # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
                # theta -= lr (m / c1) / (sqrt(v / c2) + eps), element by element
                t += 1
                c1 = 1.0 - b1 ** t
                c2 = 1.0 - b2 ** t
                mom *= b1
                mom += np.multiply(grad, 1 - b1, out=tmp)
                vel *= b2
                np.multiply(grad, 1 - b2, out=tmp)
                tmp *= grad
                vel += tmp
                np.divide(vel, c2, out=den)
                np.sqrt(den, out=den)
                den += adam_eps
                np.divide(mom, c1, out=tmp)
                tmp *= cfg.lr
                tmp /= den
                theta -= tmp
            else:
                theta -= cfg.lr * grad
        if not np.isfinite(theta).all():
            raise ValueError(f"non-finite parameters after epoch {epoch}")
        scores = forward(objective.model, ev_x).p_sig
        if not np.isfinite(scores).all():
            raise ValueError(f"non-finite evaluation scores after epoch {epoch}")
        report = evaluate(scores, ev_y)
        history.append(EpochStats(epoch=epoch, loss=total / n, report=report))
    return objective.model.copy(), history


def gradient_check(model: MlpModel, features, labels, params: AslParams,
                   mode="asl", h: float = 1e-5) -> float:
    """Max guarded relative error of analytic vs central-difference gradients.

    Perturbs every parameter of the model; the batch (and a corrected mode's
    gold mask) is capped at 32 samples.
    """
    x = np.asarray(features, dtype=np.float64)[:32]
    y = _binary(labels)[:32]
    silver = None
    if isinstance(mode, CorrectedMode) and mode.gold_mask is not None:
        silver = np.flatnonzero(~np.asarray(mode.gold_mask, dtype=bool)[:32])
    objective = _Objective(model, params, mode)
    objective.loss(x, y, silver)
    analytic = objective.grad.copy()

    theta = objective.theta
    fd = np.empty_like(analytic)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        lp = objective.loss(x, y, silver, backward=False)
        theta[i] = orig - h
        lm = objective.loss(x, y, silver, backward=False)
        theta[i] = orig
        fd[i] = (lp - lm) / (2.0 * h)
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
