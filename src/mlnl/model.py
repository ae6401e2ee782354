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

The one batch loop runs a stack of C cells: trainings that share the
initial model, data, shuffle and settings and differ only in their loss
modes. It keeps C parameter buffers as the rows of one (C, P) array and
makes each numpy call once for all of them, so the per-call cost, which
dominates a 64-row batch, is paid once per batch rather than C times.
Each cell gets the bits it would get alone. `train` runs a stack of one,
which is a flat buffer; `fill_memo` runs larger stacks ahead of the
`train` calls that will replay them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import textio
from .datagen import Dataset
from .metrics import MetricsReport, evaluate
from .numerics import (Interval, RandomStream, Settings, digest, integer, one_of, rule, sigmoid,
                       softmax)

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


@dataclass
class EpochStats:
    epoch: int
    loss: float
    report: MetricsReport | None  # None for a training without evaluation data


@dataclass
class ForwardResult:
    """Logits and the sigmoid readout; the softmax readout is computed on first read."""

    logits: np.ndarray
    p_sig: np.ndarray

    @cached_property
    def p_soft(self) -> np.ndarray:
        return softmax(self.logits, axis=-1)


def _layers(wts: list, biases: list, tanh: bool,
            x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The batch `x` followed by each hidden layer's output, and the logits,
    of the layers with transposed weights `wts` and biases `biases` (tanh or
    relu hidden units). Layers stacked along a leading axis give every
    output after `x` that axis too."""
    acts = [x]
    for wt, b in zip(wts[:-1], biases[:-1]):
        z = acts[-1] @ wt
        z += b
        acts.append(np.tanh(z, out=z) if tanh else np.maximum(z, 0.0, out=z))
    logits = acts[-1] @ wts[-1]
    logits += biases[-1]
    return acts, logits


def forward(model: MlpModel, x) -> ForwardResult:
    """Logits plus both readouts; accepts a single sample or a batch."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.shape[1] != model.weights[0].shape[1]:
        raise ValueError(f"expected {model.weights[0].shape[1]} features, got {a.shape[1]}")
    logits = _layers([w.T for w in model.weights], model.biases,
                     model.activation == "tanh", a)[1]
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
    """Views of `buf` shaped like the model's weights, then its biases; each
    row of a 2-D `buf` gives them a leading axis of its own."""
    views, off = [], 0
    for t in model.weights + model.biases:
        views.append(buf[..., off:off + t.size].reshape(*buf.shape[:-1], *t.shape))
        off += t.size
    n = len(model.weights)
    return views[:n], views[n:]


def _cell_rows(a: np.ndarray, c: int) -> np.ndarray:
    """Cell `c`'s rows of a batch array of a stack; one cell has no stack axis."""
    return a[c] if a.ndim == 3 else a


class _Objective:
    """Mean batch loss of a stack of C models, plain or corrected, and its gradient.

    The cells of a stack start as copies of `model` and see the same batches;
    they differ only in their loss modes. `matrices` gives each cell's
    correction matrix, None in plain mode. The parameters live in one buffer
    `theta` of C rows (weights, then biases), flat for a stack of one; the
    layers are views into it and `grad` has the same layout. Every product
    and reduction runs once over the whole stack, as the same BLAS calls and
    summation orders that each cell would get alone, so each cell's bits do
    not depend on the stack it is in. A corrected cell's silver rows go
    through its matrix one cell at a time. This one forward-and-loss pass
    serves the trainer, which also fills `grad`, and the finite-difference
    checker, which perturbs `theta` in place.
    """

    def __init__(self, model: MlpModel, params: AslParams, matrices: list):
        flat = np.concatenate([t.ravel() for t in model.weights + model.biases])
        self.theta = flat if len(matrices) == 1 else np.tile(flat, (len(matrices), 1))
        self.weights, biases = _split(self.theta, model)
        self.wts = [w.swapaxes(-1, -2) for w in self.weights]
        self.biases = [b[..., None, :] for b in biases]  # broadcast over the batch rows
        self.grad = np.empty_like(self.theta)
        self.grad_w, self.grad_b = _split(self.grad, model)
        self.tanh = model.activation == "tanh"
        self.params = params
        self.matrices = matrices
        self.transposed = [None if m is None else m.T for m in matrices]

    def loss(self, x: np.ndarray, y: np.ndarray, silvers: dict,
             backward: bool = True) -> list[float]:
        """Each cell's mean loss on the batch (`y` boolean). `silvers` maps
        a corrected cell to the batch rows that fit its M^T p; its other
        rows, the gold rows, and every row of a cell it does not name fit
        their own labels. With `backward`, also fills `grad`."""
        acts, logits = _layers(self.wts, self.biases, self.tanh, x)
        p = sigmoid(logits)

        corrected = [c for c, silver in silvers.items() if silver.size]
        eff = p
        if corrected:
            # the silver rows alone: BLAS may round a row of a smaller product differently
            eff = p.copy()
            for c in corrected:
                silver = silvers[c]
                _cell_rows(eff, c)[silver] = _cell_rows(p, c)[silver] @ self.matrices[c]
        terms, d_eff = _asl_terms_and_slopes(eff, y, self.params, backward)
        n = x.shape[0]
        per_sample = np.add.reduce(terms, axis=-1).reshape(-1, n)  # a row per cell
        losses = [total / n for total in np.add.reduce(per_sample, axis=1).tolist()]
        if not backward:
            return losses

        dp = d_eff
        if corrected:
            dp = d_eff.copy()
            for c in corrected:
                silver = silvers[c]
                _cell_rows(dp, c)[silver] = _cell_rows(d_eff, c)[silver] @ self.transposed[c]
        back = dp * p
        back *= 1.0 - p
        back /= n
        for l in range(len(acts) - 1, -1, -1):
            np.matmul(back.swapaxes(-1, -2), acts[l], out=self.grad_w[l])
            np.add.reduce(back, axis=-2, out=self.grad_b[l])
            if l:
                back = back @ self.weights[l]
                a = acts[l]
                if self.tanh:
                    slope = a * a
                    np.subtract(1.0, slope, out=slope)
                    back *= slope
                else:
                    back *= a > 0
        return losses


def _loss_inputs(mode, n: int, k: int) -> tuple[np.ndarray, np.ndarray | None]:
    """What the loss mode `mode` trains `n` samples of `k` classes on: which
    samples fit M^T p (none in "asl" mode, all of a CorrectedMode without a
    gold mask, else those its mask leaves out) and M (None in "asl" mode)."""
    if isinstance(mode, str) and mode == "asl":
        return np.zeros(n, dtype=bool), None
    if not isinstance(mode, CorrectedMode):
        raise ValueError(f"loss mode must be 'asl' or a CorrectedMode, got {mode!r}")
    gold = np.zeros(n) if mode.gold_mask is None else mode.gold_mask
    gold_mask = np.asarray(gold, dtype=bool)
    if gold_mask.shape != (n,):
        raise ValueError("gold_mask must have one entry per training sample")
    m = np.asarray(mode.matrix, dtype=np.float64)
    if m.shape != (k, k):
        raise ValueError(f"correction matrix shape {m.shape} does not match K={k}")
    return ~gold_mask, m


class _Cell(NamedTuple):
    """The inputs of one batch loop: `train`'s arguments with the labels
    made boolean and the loss mode read (see _loss_inputs)."""

    model: MlpModel
    x: np.ndarray
    y: np.ndarray
    silver_mask: np.ndarray
    m: np.ndarray | None
    cfg: TrainConfig
    params: AslParams

    @classmethod
    def of(cls, model: MlpModel, data: Dataset, loss_mode, cfg: TrainConfig,
           params: AslParams) -> "_Cell":
        if data.n == 0:
            raise ValueError("cannot train on an empty dataset")
        silver_mask, m = _loss_inputs(loss_mode, data.n, model.num_classes)
        return cls(model, data.features, data.labels.astype(bool), silver_mask, m, cfg, params)


class _Diverged(ValueError):
    """A batch loss, or the parameters after an epoch, of stack cell `cell`
    went non-finite."""

    def __init__(self, cell: int, message: str):
        super().__init__(message)
        self.cell = cell


def _trajectory(cells: list[_Cell]):
    """The batch loop of a stack of cells whose inputs differ only in their
    loss modes (see _Objective): after each epoch, yield the parameter buffer
    (the objective's own `theta`, which the next epoch updates in place) and
    each cell's loss summed over the epoch's samples. The first cell whose
    batch loss, or parameters after an epoch, are not finite raises _Diverged."""
    first = cells[0]
    x, y, cfg = first.x, first.y, first.cfg
    silver_masks = {c: cell.silver_mask for c, cell in enumerate(cells) if cell.m is not None}
    objective = _Objective(first.model, first.params, [cell.m for cell in cells])
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
        totals = [0.0] * len(cells)
        for start in range(0, n, cfg.batch_size):
            rows = perm[start:start + cfg.batch_size]
            losses = objective.loss(x[rows], y[rows], {
                c: mask[rows].nonzero()[0] for c, mask in silver_masks.items()})
            for c, loss in enumerate(losses):
                if not math.isfinite(loss):
                    raise _Diverged(c, f"non-finite loss at epoch {epoch}, "
                                       f"batch {start // cfg.batch_size + 1}")
                totals[c] += loss * len(rows)
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
        bad = np.flatnonzero(~np.isfinite(theta.reshape(len(cells), -1)).all(axis=1))
        if bad.size:
            raise _Diverged(int(bad[0]), f"non-finite parameters after epoch {epoch}")
        yield theta, totals


def _stack_key(cell: _Cell) -> str:
    """The digest of everything `_trajectory` reads of a cell but its loss
    mode: the initial parameters, their shapes and the activation, the
    training rows, the AslParams and every TrainConfig field but
    `init_scale`, which only the initial parameters carry."""
    loop_cfg = {f.name: getattr(cell.cfg, f.name) for f in fields(cell.cfg)
                if f.name != "init_scale"}
    model = cell.model
    return digest((model.layer_sizes, model.activation, cell.params, loop_cfg),
                  *model.weights, *model.biases, cell.x, cell.y)


def _trajectory_key(cell: _Cell) -> str:
    """The digest of everything `_trajectory` reads of a cell."""
    return digest((_stack_key(cell), cell.m is None), cell.silver_mask, cell.m)


def _recorded(steps, memo: dict, keys: list[str]):
    """The `steps` of a stack, with each cell's per-epoch (snapshot, total)
    pairs stored in `memo` under that cell's key in `keys` only once the last
    epoch has been taken, so a failed training stores nothing."""
    done = [[] for _ in keys]
    for theta, totals in steps:
        for loop, row, total in zip(done, theta.reshape(len(keys), -1), totals):
            loop.append((row.copy(), total))
        yield theta, totals
    memo.update(zip(keys, done))


def train(model: MlpModel, data: Dataset, loss_mode, cfg: TrainConfig,
          params: AslParams | None = None, eval_data: Dataset | None = None,
          memo: dict | None = None) -> tuple[MlpModel, list[EpochStats]]:
    """Mini-batch training with a seeded shuffle per epoch.

    `loss_mode` is "asl" or a CorrectedMode whose gold_mask marks trusted
    samples (trained with plain asymmetric loss against their own labels).
    Returns the last-epoch model and one EpochStats per epoch with its mean
    training loss. Each epoch's report is computed on `eval_data`; without
    it, nothing is evaluated and every report is None. A non-finite batch
    loss, or non-finite parameters or evaluation scores after an epoch,
    raise ValueError.

    `memo` maps a content key of the batch loop's inputs to that loop's
    per-epoch parameters and loss totals. A call whose key it holds skips
    the loop; a call that finishes adds its own. The reports and the model
    are the same bytes either way. `fill_memo` fills it for many calls at once.
    """
    cell = _Cell.of(model, data, loss_mode, cfg, params or AslParams())
    key = None if memo is None else _trajectory_key(cell)
    if key is not None and key in memo:
        steps = memo[key]
    else:
        stack = _trajectory([cell])
        if key is not None:
            stack = _recorded(stack, memo, [key])
        steps = ((theta, total) for theta, (total,) in stack)
    history: list[EpochStats] = []
    for epoch, (theta, total) in enumerate(steps, start=1):
        current = MlpModel(*_split(theta, model), model.activation)
        report = None
        if eval_data is not None:
            scores = forward(current, eval_data.features).p_sig
            if not np.isfinite(scores).all():
                raise ValueError(f"non-finite evaluation scores after epoch {epoch}")
            report = evaluate(scores, eval_data.labels)
        history.append(EpochStats(epoch=epoch, loss=total / data.n, report=report))
    return current.copy(), history


def fill_memo(jobs, memo: dict) -> None:
    """Run the batch loops of `jobs`, each a (model, data, loss mode,
    TrainConfig, AslParams) as `train` takes them, that `memo` lacks, and
    store each under the key that `train` looks up. Jobs whose loops read the
    same inputs but for the loss mode train as one stack (see _Objective),
    which holds C cells' parameters, gradients, Adam moments and per-epoch
    snapshots at once. A job whose loop diverges stores nothing: its stack
    starts again without it, and the other cells' bytes do not change. A job
    that `train` would reject raises its ValueError before any loop runs."""
    stacks: dict = {}
    for job in jobs:
        cell = _Cell.of(*job)
        key = _trajectory_key(cell)
        if key not in memo:
            stacks.setdefault(_stack_key(cell), {})[key] = cell
    for stack in stacks.values():
        while stack:
            keys = list(stack)
            try:
                for _ in _recorded(_trajectory(list(stack.values())), memo, keys):
                    pass
            except _Diverged as e:
                del stack[keys[e.cell]]
            else:
                break


def gradient_check(model: MlpModel, features, labels, params: AslParams,
                   mode="asl") -> float:
    """Max guarded relative error of analytic vs central-difference gradients.

    Perturbs every parameter of the model by 1e-5; the batch (and a corrected
    mode's gold mask) is capped at 32 samples.
    """
    x = np.asarray(features, dtype=np.float64)
    silver_mask, m = _loss_inputs(mode, x.shape[0], model.num_classes)
    silvers = {0: np.flatnonzero(silver_mask[:32])}
    x = x[:32]
    y = _binary(labels)[:32]
    objective = _Objective(model, params, [m])
    objective.loss(x, y, silvers)
    analytic = objective.grad.copy()

    theta = objective.theta
    h = 1e-5
    fd = np.empty_like(analytic)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        (lp,) = objective.loss(x, y, silvers, backward=False)
        theta[i] = orig - h
        (lm,) = objective.loss(x, y, silvers, backward=False)
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
