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
A caller may pass `train` a memo of finished batch loops, keyed on their
inputs' contents: a repeated training then only evaluates again.
`record_trajectory` runs a loop into such a memo without evaluating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import textio
from .datagen import Dataset
from .metrics import MetricsReport, evaluate
from .numerics import Interval, RandomStream, Settings, integer, one_of, rule, sigmoid, softmax

ACTIVATIONS = ("tanh", "relu")
OPTIMIZERS = ("adam", "sgd")  # adaptive-moment or plain gradient steps


@dataclass(eq=False)
class MlpModel:
    weights: list[np.ndarray]  # each (out, in)
    biases: list[np.ndarray]   # each (out,)
    activation: str = "tanh"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
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
class AslParams(Settings):
    gamma_plus: float = rule(Interval(0.0), default=0.0)
    gamma_minus: float = rule(Interval(0.0), default=4.0)
    margin: float = rule(Interval(0.0, 1.0), default=0.05)
    clamp_eps: float = rule(Interval(0.0, 1e-3, lo_open=True, hi_open=False), default=1e-7)


@dataclass(frozen=True)
class TrainConfig(Settings):
    epochs: int = rule(integer(Interval(1)), default=40)
    batch_size: int = rule(integer(Interval(1)), default=64)
    lr: float = rule(Interval(0.0), default=1e-3)
    optimizer: str = rule(one_of(OPTIMIZERS), default="adam")
    init_scale: float = rule(Interval(0.0), default=1.0)
    seed: int = 0


@dataclass
class CorrectedMode:
    """Loss mode for corrected training: silver rows fit M^T p, gold rows plain."""

    matrix: np.ndarray
    gold_mask: np.ndarray | None = None  # bool per sample; None = all silver

    def effective_matrix(self, k: int) -> np.ndarray:
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (k, k):
            raise ValueError(f"correction matrix shape {m.shape} does not match K={k}")
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
    p = np.asarray(p_sig, dtype=np.float64)
    terms, _ = _asl_terms_and_slopes(p, _binary(y), params, slopes=False)
    per = terms.sum(axis=-1)
    return float(per) if per.ndim == 0 else per


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
        self.m = None  # the correction matrix of a CorrectedMode
        if isinstance(mode, CorrectedMode):
            self.m = mode.effective_matrix(model.num_classes)
            self.mt = self.m.T

    def loss(self, x: np.ndarray, y: np.ndarray, silver: np.ndarray,
             backward: bool = True) -> float:
        """Mean loss of the batch (`y` boolean). The rows indexed by `silver`
        fit M^T p and the others, the gold rows, fit their own labels; plain
        mode has no silver rows. With `backward`, also fills `grad`."""
        acts, logits = _layers(self.model, x)
        p = sigmoid(logits)

        eff = p
        if silver.size:
            # the silver rows alone: BLAS may round a row of a smaller product differently
            eff = p.copy()
            eff[silver] = p[silver] @ self.m
        terms, d_eff = _asl_terms_and_slopes(eff, y, self.params, backward)
        n = x.shape[0]
        loss = float(np.add.reduce(np.add.reduce(terms, axis=1))) / n
        if not backward:
            return loss

        dp = d_eff
        if silver.size:
            dp = d_eff.copy()
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


def _silver_mask(mode, n: int) -> np.ndarray:
    """Which of `n` samples fit M^T p: none in "asl" mode, all of a
    CorrectedMode without a gold mask, else those its mask leaves out."""
    if isinstance(mode, str) and mode == "asl":
        return np.zeros(n, dtype=bool)
    if not isinstance(mode, CorrectedMode):
        raise ValueError(f"loss mode must be 'asl' or a CorrectedMode, got {mode!r}")
    if mode.gold_mask is None:
        return np.ones(n, dtype=bool)
    gold_mask = np.asarray(mode.gold_mask, dtype=bool)
    if gold_mask.shape != (n,):
        raise ValueError("gold_mask must have one entry per training sample")
    return ~gold_mask


def _trajectory(objective: _Objective, x: np.ndarray, y: np.ndarray,
                silver_mask: np.ndarray, cfg: TrainConfig):
    """The batch loop: after each epoch, yield the parameter buffer (the
    objective's own `theta`, which the next epoch updates in place) and the
    epoch's loss summed over samples. A non-finite batch loss raises ValueError."""
    n = x.shape[0]
    shuffle_stream = RandomStream(cfg.seed).derive("shuffle")
    theta, grad = objective.theta, objective.grad
    adam = cfg.optimizer == "adam"
    if adam:
        b1, b2, adam_eps = 0.9, 0.999, 1e-8
        mom, vel = np.zeros_like(theta), np.zeros_like(theta)
        tmp, den = np.empty_like(theta), np.empty_like(theta)
        t = 0

    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_stream.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            rows = perm[start:start + cfg.batch_size]
            loss = objective.loss(x[rows], y[rows], silver_mask[rows].nonzero()[0])
            if not math.isfinite(loss):
                raise ValueError(f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size + 1}")
            total += loss * len(rows)
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
        yield theta, total


def _trajectory_key(objective: _Objective, x: np.ndarray, y: np.ndarray,
                    silver_mask: np.ndarray, cfg: TrainConfig) -> str:
    """SHA-256 of everything `_trajectory` reads: the initial parameters, their
    shapes and the activation, the training rows, the loss mode, the AslParams
    and every TrainConfig field but `init_scale`, which only the initial
    parameters carry."""
    import hashlib  # here, not at the top: only a call with a memo hashes

    loop_cfg = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "init_scale"}
    model = objective.model
    h = hashlib.sha256(repr((model.layer_sizes, model.activation, objective.params,
                             loop_cfg, objective.m is None)).encode())
    for a in (objective.theta, x, y, silver_mask, objective.m):
        if a is not None:
            a = np.ascontiguousarray(a)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a)
    return h.hexdigest()


def _recorded(steps, memo: dict, key: str):
    """`steps` as (snapshot, total) pairs, stored in `memo` under `key` only
    once the last one has been taken, so a failed training stores nothing."""
    done = []
    for theta, total in steps:
        done.append((theta.copy(), total))
        yield done[-1]
    memo[key] = done


def _steps(model: MlpModel, data: Dataset, loss_mode, cfg: TrainConfig, params: AslParams,
           memo: dict | None):
    """The (parameters, loss total) of each epoch of `train`'s batch loop:
    taken from `memo` when it holds the loop's key, else run (and, with a
    memo, stored in it once the last epoch is taken)."""
    x = data.features
    y = data.labels.astype(bool)
    if x.shape[0] == 0:
        raise ValueError("cannot train on an empty dataset")
    silver_mask = _silver_mask(loss_mode, x.shape[0])
    objective = _Objective(model, params, loss_mode)
    steps = _trajectory(objective, x, y, silver_mask, cfg)
    if memo is not None:
        key = _trajectory_key(objective, x, y, silver_mask, cfg)
        steps = memo[key] if key in memo else _recorded(steps, memo, key)
    return steps


def _finite_model(theta: np.ndarray, model: MlpModel, epoch: int) -> MlpModel:
    """`model`'s layout over the parameters `theta` after `epoch`, which must be finite."""
    if not np.isfinite(theta).all():
        raise ValueError(f"non-finite parameters after epoch {epoch}")
    return MlpModel(*_split(theta, model), model.activation)


def train(model: MlpModel, data: Dataset, loss_mode, cfg: TrainConfig,
          params: AslParams | None = None, eval_data: Dataset | None = None,
          memo: dict | None = None) -> tuple[MlpModel, list[EpochStats]]:
    """Mini-batch training with a seeded shuffle per epoch.

    `loss_mode` is "asl" or a CorrectedMode whose gold_mask marks trusted
    samples (trained with plain asymmetric loss against their own labels).
    Always returns the last-epoch model; per-epoch reports are computed on
    `eval_data` when given, otherwise on the training data. A non-finite
    batch loss, or non-finite parameters or evaluation scores after an
    epoch, raise ValueError.

    `memo` maps a content key of the batch loop's inputs to that loop's
    per-epoch parameters and loss totals. A call whose key it holds skips
    the loop and only evaluates; a call that finishes adds its own. The
    reports and the model are the same bytes either way.
    """
    steps = _steps(model, data, loss_mode, cfg, params or AslParams(), memo)
    history: list[EpochStats] = []
    ev = eval_data if eval_data is not None else data
    for epoch, (theta, total) in enumerate(steps, start=1):
        current = _finite_model(theta, model, epoch)
        scores = forward(current, ev.features).p_sig
        if not np.isfinite(scores).all():
            raise ValueError(f"non-finite evaluation scores after epoch {epoch}")
        report = evaluate(scores, ev.labels)
        history.append(EpochStats(epoch=epoch, loss=total / data.n, report=report))
    return current.copy(), history


def record_trajectory(model: MlpModel, data: Dataset, loss_mode, cfg: TrainConfig,
                      params: AslParams, memo: dict) -> MlpModel:
    """`train`'s batch loop alone, with no evaluation: stores the loop in
    `memo` as `train` does, so a `train` call with the same inputs then only
    evaluates, and returns the same last-epoch model. Non-finite parameters
    raise ValueError as in `train`, and then `memo` gets no entry."""
    for epoch, (theta, _) in enumerate(_steps(model, data, loss_mode, cfg, params, memo),
                                       start=1):
        current = _finite_model(theta, model, epoch)
    return current.copy()


def gradient_check(model: MlpModel, features, labels, params: AslParams,
                   mode="asl") -> float:
    """Max guarded relative error of analytic vs central-difference gradients.

    Perturbs every parameter of the model by 1e-5; the batch (and a corrected
    mode's gold mask) is capped at 32 samples.
    """
    x = np.asarray(features, dtype=np.float64)
    silver = np.flatnonzero(_silver_mask(mode, x.shape[0])[:32])
    x = x[:32]
    y = _binary(labels)[:32]
    objective = _Objective(model, params, mode)
    objective.loss(x, y, silver)
    analytic = objective.grad.copy()

    theta = objective.theta
    h = 1e-5
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
    def lines():
        yield f"MLPM v1 {' '.join(str(s) for s in model.layer_sizes)} {model.activation}"
        for w, b in zip(model.weights, model.biases):
            for row in (*w, b):
                yield " ".join("%.17g" % v for v in row)

    textio.write_lines(path, lines())


def load_model(path) -> MlpModel:
    """Read a `save_model` checkpoint; malformed, truncated or overlong files
    raise ValueError citing `path:line`."""
    lines = textio.numbered_lines(path)
    lineno = None  # the line being judged; None judges the whole file

    def parameter_row(width: int) -> list[float]:
        nonlocal lineno
        lineno, text = next(lines, (lineno + 1, None))
        if text is None:
            raise ValueError("checkpoint ends before its last bias line")
        row = textio.float_row(text, width)
        if not all(map(math.isfinite, row)):
            raise ValueError("non-finite parameter")
        return row

    try:
        lineno, head = next(lines, (None, ""))
        head = head.split()
        if len(head) < 5 or head[0] != "MLPM" or head[1] != "v1":
            raise ValueError("malformed checkpoint header")
        activation = head[-1]
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        try:
            sizes = [int(t) for t in head[2:-1]]
        except ValueError:
            raise ValueError("layer sizes must be integers") from None
        if min(sizes) < 1:
            raise ValueError("layer sizes must be >= 1")
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            weights.append(np.array([parameter_row(fan_in) for _ in range(fan_out)]))
            biases.append(np.array(parameter_row(fan_out)))
        lineno, extra = next(lines, (None, None))
        if extra is not None:
            raise ValueError("data after the last bias line")
    except ValueError as e:
        raise textio.located(path, lineno, e) from None
    return MlpModel(weights, biases, activation)
