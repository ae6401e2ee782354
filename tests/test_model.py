import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlnl.model
from mlnl.datagen import Dataset
from mlnl.model import (AslParams, CorrectedMode, MlpModel, TrainConfig, _Objective,
                        asl_loss, forward, gradient_check, init_model, load_model, save_model,
                        train)
from mlnl.numerics import sigmoid

BCE = AslParams(gamma_plus=0.0, gamma_minus=0.0, margin=0.0, clamp_eps=1e-7)


def rand_model(sizes=(6, 5, 4), seed=0, activation="tanh"):
    return init_model(list(sizes), activation, 1.0, seed=seed)


def rand_batch(rng, n, d, k):
    x = rng.normal(size=(n, d))
    y = (rng.uniform(size=(n, k)) < 0.4).astype(float)
    y[y.sum(axis=1) == 0, 0] = 1.0
    return x, y


def margin_safe(p_like, params, dist=5e-3):
    """True when no probability sits near the margin kink or the clamp edges."""
    p = np.asarray(p_like)
    return (np.abs(p - params.margin).min() > dist
            and p.min() > 2 * params.clamp_eps
            and p.max() < 1 - 2 * params.clamp_eps)


class TestForward:
    def test_zero_model_outputs(self):
        m = MlpModel([np.zeros((3, 4)), np.zeros((2, 3))],
                     [np.zeros(3), np.zeros(2)], "tanh")
        out = forward(m, np.ones(4))
        np.testing.assert_array_equal(out.p_sig, [0.5, 0.5])
        np.testing.assert_allclose(out.p_soft, [0.5, 0.5], atol=1e-15)

    def test_softmax_on_simplex(self):
        m = rand_model(seed=1)
        out = forward(m, np.random.default_rng(0).normal(size=(7, 6)))
        np.testing.assert_allclose(out.p_soft.sum(axis=1), 1.0, atol=1e-12)

    def test_batched_equals_per_sample(self):
        # BLAS may round the last ulp differently between kernel shapes
        m = rand_model(seed=2)
        x = np.random.default_rng(3).normal(size=(9, 6))
        batched = forward(m, x)
        for i in range(9):
            single = forward(m, x[i])
            np.testing.assert_allclose(batched.logits[i], single.logits, atol=1e-13)
            np.testing.assert_allclose(batched.p_sig[i], single.p_sig, atol=1e-13)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            forward(rand_model(), np.zeros(5))


class TestAslLoss:
    def test_reduces_to_bce(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.02, 0.98, size=8)
        y = (rng.uniform(size=8) < 0.5).astype(float)
        bce = -float(np.sum(y * np.log(p) + (1 - y) * np.log(1 - p)))
        assert abs(asl_loss(p, y, BCE) - bce) <= 1e-12

    def test_zero_contributions(self):
        params = AslParams(gamma_plus=1.0, gamma_minus=2.0, margin=0.1, clamp_eps=1e-7)
        # positive at p -> 1 (clamped): loss term ~ 0; negative below margin: exactly 0
        assert asl_loss(np.array([1.0 - 1e-7]), np.array([1.0]), params) <= 1e-6
        assert asl_loss(np.array([0.05]), np.array([0.0]), params) == 0.0

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = 4
            p = rng.uniform(0.01, 0.99, size=k)
            y = (rng.uniform(size=k) < 0.5).astype(float)
            params = AslParams(rng.uniform(0, 3), rng.uniform(0, 5),
                               rng.uniform(0, 0.3), 1e-7)
            pc = np.clip(p, 1e-7, 1 - 1e-7)
            total = 0.0
            for i in range(k):
                if y[i] == 1:
                    total -= (1 - pc[i]) ** params.gamma_plus * np.log(pc[i])
                else:
                    pm = min(max(pc[i] - params.margin, 0.0), 1 - 1e-7)
                    total -= pm ** params.gamma_minus * np.log(1 - pm)
            assert abs(asl_loss(p, y, params) - total) <= 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.uniform(size=6)
            y = (rng.uniform(size=6) < 0.5).astype(float)
            assert asl_loss(p, y, AslParams()) >= 0.0


def fd_wrt_logits(fn, z, h=1e-5):
    out = np.zeros_like(z)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp.flat[i] += h
        zm.flat[i] -= h
        out.flat[i] = (fn(zp) - fn(zm)) / (2 * h)
    return out


def rel_err(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)))


def sample_objective(z, y, params, c=None):
    """Loss and logit gradient of the trainer's objective on one sample.

    A one-layer model with a K x K identity weight and a zero bias has its
    input as its logits, so on the one-row batch `z` the objective's mean
    loss is the per-sample loss and its bias gradient is the gradient with
    respect to the logits. With a matrix `c` the row is silver: it fits
    c^T sigmoid(z) to `y`.
    """
    z = np.asarray(z, dtype=np.float64)
    k = z.size
    m = None if c is None else np.asarray(c, dtype=np.float64)
    objective = _Objective(MlpModel([np.eye(k)], [np.zeros(k)]), params, [m])
    silver = np.arange(0 if c is None else 1)
    (loss,) = objective.loss(z[None, :], np.asarray(y).astype(bool)[None, :], {0: silver})
    return loss, objective.grad_b[0].copy()


class TestAslGrad:
    """The plain objective's gradient with respect to the logits."""

    def test_bce_gradient_identity(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=7)
        y = (rng.uniform(size=7) < 0.5).astype(float)
        _, grad = sample_objective(z, y, BCE)
        np.testing.assert_allclose(grad, sigmoid(z) - y, atol=1e-12)

    def test_flat_below_margin(self):
        params = AslParams(0.0, 4.0, 0.3, 1e-7)
        z = np.array([-2.0, -1.5])  # p = .12, .18 both < .3
        np.testing.assert_array_equal(sample_objective(z, np.zeros(2), params)[1], [0.0, 0.0])

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 60:
            z = rng.normal(scale=1.5, size=5)
            y = (rng.uniform(size=5) < 0.4).astype(float)
            params = AslParams(rng.uniform(0, 3), rng.uniform(0, 5),
                               rng.uniform(0.0, 0.3), 1e-7)
            if not margin_safe(sigmoid(z), params):
                continue
            _, a = sample_objective(z, y, params)
            f = fd_wrt_logits(lambda zz: asl_loss(sigmoid(zz), y, params), z)
            assert rel_err(a, f) < 1e-4
            checked += 1


class TestCorrectedLoss:
    """The corrected objective L(M^T sigmoid(z), y) and its logit gradient."""

    def test_identity_matrix_equals_plain(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(5, 4))
        y = (rng.uniform(size=(5, 4)) < 0.5).astype(float)
        params = AslParams()
        for zi, yi in zip(z, y):
            loss_c, grad_c = sample_objective(zi, yi, params, np.eye(4))
            loss_p, grad_p = sample_objective(zi, yi, params)
            assert loss_c == loss_p == asl_loss(sigmoid(zi), yi, params)
            np.testing.assert_array_equal(grad_c, grad_p)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 60:
            k = 4
            z = rng.normal(scale=1.5, size=k)
            y = (rng.uniform(size=k) < 0.4).astype(float)
            c = rng.uniform(0, 1, size=(k, k))
            c /= c.sum(axis=1, keepdims=True)
            params = AslParams(rng.uniform(0, 2), rng.uniform(0, 4),
                               rng.uniform(0.0, 0.2), 1e-7)
            if not margin_safe(sigmoid(z) @ c, params):
                continue
            _, grad = sample_objective(z, y, params, c)
            f = fd_wrt_logits(lambda zz: sample_objective(zz, y, params, c)[0], z)
            assert rel_err(grad, f) < 1e-4
            checked += 1

    def test_equal_rows_couple_only_through_shared_q(self):
        # all rows equal: q = (sum p) * row is independent of where p's mass
        # sits, and dL/dp is the same scalar for every coordinate, so the
        # logit gradient is that scalar times p(1-p)
        rng = np.random.default_rng(8)
        k = 4
        row = rng.uniform(0.1, 0.3, size=k)
        c = np.tile(row, (k, 1))
        params = AslParams()
        for y in (np.eye(k)[0], np.eye(k)[2]):
            z = rng.normal(size=k)
            p = sigmoid(z)
            loss, grad = sample_objective(z, y, params, c)
            q = p @ c
            np.testing.assert_allclose(q, p.sum() * row, atol=1e-12)
            per_p = grad / (p * (1 - p))
            np.testing.assert_allclose(per_p, per_p[0], atol=1e-10)
            # direct-evaluation oracle
            assert abs(loss - asl_loss(np.clip(q, 1e-7, 1 - 1e-7), y, params)) <= 1e-12


class TestGradientCheck:
    def test_fresh_model_asl(self):
        rng = np.random.default_rng(10)
        x, y = rand_batch(rng, 12, 6, 4)
        err = gradient_check(rand_model(seed=11), x, y, AslParams(1.0, 2.0, 0.1, 1e-7))
        assert err < 1e-4

    def test_corrected_mode_with_random_matrix(self):
        rng = np.random.default_rng(12)
        x, y = rand_batch(rng, 10, 6, 4)
        c = rng.uniform(0, 1, size=(4, 4))
        c /= c.sum(axis=1, keepdims=True)
        mask = rng.uniform(size=10) < 0.3
        err = gradient_check(rand_model(seed=13), x, y, AslParams(0.5, 3.0, 0.05, 1e-7),
                             mode=CorrectedMode(c, mask))
        assert err < 1e-4

    def test_relu_activation(self):
        rng = np.random.default_rng(14)
        x, y = rand_batch(rng, 8, 6, 4)
        err = gradient_check(rand_model(seed=15, activation="relu"), x, y, BCE)
        assert err < 1e-4

    def test_zero_lr_training_keeps_check_result(self):
        rng = np.random.default_rng(16)
        x, y = rand_batch(rng, 10, 4, 3)
        m0 = init_model([4, 8, 3], "tanh", 1.0, seed=17)
        ds = Dataset(x, y.astype(np.uint8))
        trained, _ = train(m0, ds, "asl",
                           TrainConfig(epochs=2, batch_size=8, lr=0.0,
                                       optimizer="sgd", seed=18))
        params = AslParams(1.0, 2.0, 0.1, 1e-7)
        assert gradient_check(trained, x, y, params) == gradient_check(m0, x, y, params)


def toy_dataset(n=240, d=4, k=3, seed=0):
    rng = np.random.default_rng(seed)
    protos = rng.normal(size=(k, d)) * 3.0
    labels = np.zeros((n, k), dtype=np.uint8)
    labels[np.arange(n), rng.integers(0, k, size=n)] = 1
    feats = labels.astype(float) @ protos + 0.4 * rng.normal(size=(n, d))
    return Dataset(feats, labels)


class TestTrain:
    def test_loss_decreases_on_separable_data(self):
        ds = toy_dataset()
        cfg = TrainConfig(epochs=5, batch_size=32, lr=5e-3, optimizer="adam", seed=1)
        _, hist = train(init_model([4, 8, 3], "tanh", 1.0, seed=2), ds, "asl", cfg)
        losses = [h.loss for h in hist]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_zero_lr_keeps_parameters(self):
        ds = toy_dataset(seed=3)
        m0 = init_model([4, 8, 3], "tanh", 1.0, seed=4)
        cfg = TrainConfig(epochs=2, batch_size=32, lr=0.0, optimizer="sgd", seed=5)
        m1, _ = train(m0, ds, "asl", cfg)
        for a, b in zip(m0.weights + m0.biases, m1.weights + m1.biases):
            np.testing.assert_array_equal(a, b)

    def test_replay_bit_identical(self):
        ds = toy_dataset(seed=6)
        m0 = init_model([4, 8, 3], "tanh", 1.0, seed=7)
        cfg = TrainConfig(epochs=3, batch_size=16, lr=2e-3, optimizer="adam", seed=8)
        m1, h1 = train(m0, ds, "asl", cfg)
        m2, h2 = train(m0, ds, "asl", cfg)
        for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
            np.testing.assert_array_equal(a, b)
        assert [h.loss for h in h1] == [h.loss for h in h2]

    def test_does_not_mutate_input_model(self):
        ds = toy_dataset(seed=9)
        m0 = init_model([4, 8, 3], "tanh", 1.0, seed=10)
        snapshot = [w.copy() for w in m0.weights]
        train(m0, ds, "asl", TrainConfig(epochs=1, batch_size=32, lr=1e-2, seed=11))
        for a, b in zip(snapshot, m0.weights):
            np.testing.assert_array_equal(a, b)

    def test_identity_correction_matches_plain_trajectory(self):
        """An identity M reads as plain mode, with the plain loop's key; the
        corrected loop with that M, run past the reader, takes the same steps
        bit for bit, so reading it as plain changes no byte."""
        ds = toy_dataset(seed=12)
        m0 = init_model([4, 8, 3], "tanh", 1.0, seed=13)
        cfg = TrainConfig(epochs=3, batch_size=32, lr=2e-3, optimizer="adam", seed=14)
        mask = np.zeros(ds.n, dtype=bool)
        mask[:50] = True
        plain = mlnl.model._Cell.of(m0, ds, "asl", cfg, AslParams())
        identity = mlnl.model._Cell.of(m0, ds, CorrectedMode(np.eye(3), mask), cfg, AslParams())
        assert identity.m is None
        assert mlnl.model._trajectory_key(identity) == mlnl.model._trajectory_key(plain)
        corrected = plain._replace(silver_mask=~mask, m=np.eye(3))
        assert [(theta.tobytes(), totals) for theta, totals in steps_of([plain])] == \
            [(theta.tobytes(), totals) for theta, totals in steps_of([corrected])]

    def test_gold_mask_shape_validated(self):
        ds = toy_dataset(seed=15)
        mode = CorrectedMode(np.eye(3), np.zeros(5, dtype=bool))
        with pytest.raises(ValueError, match="gold_mask"):
            train(init_model([4, 8, 3], "tanh", 1.0, seed=16), ds, mode,
                  TrainConfig(epochs=1, batch_size=32, lr=1e-3, seed=17))

    @pytest.mark.parametrize("mode", ["bogus", "ASL", None, np.eye(3)],
                             ids=["bogus", "upper-case", "none", "matrix"])
    def test_unknown_loss_mode_rejected(self, mode):
        ds, model = toy_dataset(seed=15), init_model([4, 8, 3], "tanh", 1.0, seed=16)
        with pytest.raises(ValueError, match="loss mode must be 'asl' or a CorrectedMode, got "):
            train(model, ds, mode, TrainConfig(epochs=1, batch_size=32, lr=1e-3, seed=17))
        with pytest.raises(ValueError, match="loss mode must be 'asl' or a CorrectedMode, got "):
            gradient_check(model, ds.features, ds.labels, BCE, mode)

    def test_empty_training_set_rejected(self):
        empty = Dataset(np.zeros((0, 4)), np.zeros((0, 3)))
        with pytest.raises(ValueError, match="cannot train on an empty dataset"):
            train(init_model([4, 8, 3], "tanh", 1.0, seed=26), empty, "asl",
                  TrainConfig(epochs=1, batch_size=32, seed=27))

    def test_no_float_warning_below_the_margin(self):
        # an output bias of -8 keeps every probability below the margin, where
        # pow(p_m, gamma_minus - 1) would divide by zero without a placeholder
        ds = toy_dataset(seed=18)
        m0 = init_model([4, 8, 3], "tanh", 1.0, seed=19)
        m0.biases[-1][:] = -8.0
        params = AslParams(gamma_plus=0.0, gamma_minus=0.5, margin=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, hist = train(m0, ds, "asl", TrainConfig(epochs=2, batch_size=32, seed=20), params)
        assert all(np.isfinite(h.loss) for h in hist)

    def test_non_finite_parameters_name_the_epoch(self):
        # features of scale 1e2 through an unsaturated relu layer give
        # gradient entries above 1.8, so one SGD step with lr = 1e308 (an
        # infinite rate breaks TrainConfig's rule) overflows parameters to inf
        toy = toy_dataset(seed=21)
        ds = Dataset(toy.features * 1e2, toy.labels)
        cfg = TrainConfig(epochs=2, batch_size=ds.n, lr=1e308, optimizer="sgd", seed=22)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="non-finite parameters after epoch 1"):
                train(init_model([4, 8, 3], "relu", 1.0, seed=23), ds, "asl", cfg)

    def test_non_finite_evaluation_scores_name_the_epoch(self):
        # each product overflows to +-inf, so every logit sums to inf - inf
        ds = toy_dataset(seed=24)
        model = MlpModel([np.full((3, 4), 2.0)], [np.zeros(3)], "tanh")
        probe = Dataset(np.array([[1e308, 1e308, -1e308, -1e308]]), np.array([[1, 0, 0]]))
        cfg = TrainConfig(epochs=2, batch_size=32, lr=0.0, optimizer="sgd", seed=25)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite evaluation scores after epoch 1"):
                train(model, ds, "asl", cfg, eval_data=probe)


@pytest.fixture
def loop_runs(monkeypatch):
    """A function that makes a call and says whether it ran a batch loop,
    seen by a spy on _Objective.loss, which the loop calls once per batch."""
    calls = []
    loss = _Objective.loss

    def spy(self, *args, **kwargs):
        calls.append(None)
        return loss(self, *args, **kwargs)

    monkeypatch.setattr(_Objective, "loss", spy)

    def ran(call) -> bool:
        before = len(calls)
        call()
        return len(calls) > before
    return ran


def bits(model, history) -> list[bytes]:
    """The bytes of a model's parameters and of each epoch's loss and report."""
    out = [t.tobytes() for t in model.weights + model.biases]
    for h in history:
        r = h.report
        out += [np.float64([h.loss, r.map, r.cf1, r.of1]).tobytes(), r.per_class_ap.tobytes()]
    return out


def memo_call():
    """A corrected training's inputs, as a dict of train's arguments, whose
    gold mask and matrix the variants below can change."""
    ds = toy_dataset(seed=30)
    ds = Dataset(ds.features.copy(), ds.labels.copy())
    mask = np.zeros(ds.n, dtype=bool)
    mask[:40] = True
    return {"model": init_model([4, 8, 3], "tanh", 1.0, seed=31), "data": ds,
            "loss_mode": CorrectedMode(0.7 * np.eye(3) + 0.1, mask),
            "cfg": TrainConfig(epochs=2, batch_size=32, lr=2e-3, optimizer="adam", seed=32),
            "params": AslParams()}


def _set(arg, **changes):
    def change(call):
        call[arg] = dataclasses.replace(call[arg], **changes)
    return change


def _flip_feature_byte(call):
    call["data"].features.view(np.uint8)[5] ^= 1


def _flip_label(call):
    labels = call["data"].labels
    labels[3, 1] = 1 - labels[3, 1]


def _flip_gold_flag(call):
    call["loss_mode"].gold_mask[50] = True


def _bump_matrix(call):
    call["loss_mode"].matrix[0, 2] += 1e-3


def _bump_weight(call):
    w = call["model"].weights[0]
    w[0, 0] = np.nextafter(w[0, 0], np.inf)


def _bump_bias(call):
    call["model"].biases[1][2] = 1e-3


def _relu(call):
    call["model"].activation = "relu"


def _plain(call):
    call["loss_mode"] = "asl"


# Each changes one input of the batch loop, in place where it is an array,
# so that the memo can only tell the calls apart by content.
KEYED_INPUTS = {
    "epochs": _set("cfg", epochs=3), "batch_size": _set("cfg", batch_size=16),
    "lr": _set("cfg", lr=3e-3), "optimizer": _set("cfg", optimizer="sgd"),
    "seed": _set("cfg", seed=33), "gamma_plus": _set("params", gamma_plus=1.0),
    "gamma_minus": _set("params", gamma_minus=2.0), "margin": _set("params", margin=0.1),
    "clamp_eps": _set("params", clamp_eps=1e-6), "feature_byte": _flip_feature_byte,
    "label": _flip_label, "gold_mask": _flip_gold_flag, "matrix": _bump_matrix,
    "init_weight": _bump_weight, "init_bias": _bump_bias, "activation": _relu,
    "loss_mode": _plain,
}


class TestTrajectoryMemo:
    @pytest.mark.parametrize("change", list(KEYED_INPUTS.values()), ids=list(KEYED_INPUTS))
    def test_a_changed_input_runs_the_loop_again(self, loop_runs, change):
        call, memo = memo_call(), {}
        assert loop_runs(lambda: train(**call, memo=memo))
        assert not loop_runs(lambda: train(**call, memo=memo))
        change(call)
        assert loop_runs(lambda: train(**call, memo=memo))
        assert len(memo) == 2

    def test_a_hit_evaluates_on_its_own_eval_data(self, loop_runs):
        call, memo = memo_call(), {}
        other = toy_dataset(n=90, seed=34)
        train(**call, memo=memo)
        # init_scale reaches the loop only through the initial parameters
        call["cfg"] = dataclasses.replace(call["cfg"], init_scale=5.0)
        hit = []
        assert not loop_runs(lambda: hit.append(train(**call, eval_data=other, memo=memo)))
        fresh = train(**call, eval_data=other)
        assert bits(*hit[0]) == bits(*fresh)

    def test_without_eval_data_nothing_is_evaluated(self, loop_runs, monkeypatch):
        """A call with no evaluation set runs the loop and fills the memo as
        one with it does, and calls neither forward nor evaluate."""
        call, memo = memo_call(), {}
        evaluated = train(**call, eval_data=toy_dataset(n=90, seed=35))

        def refuse(*args, **kwargs):
            raise AssertionError("evaluated without an evaluation set")

        monkeypatch.setattr(mlnl.model, "forward", refuse)
        monkeypatch.setattr(mlnl.model, "evaluate", refuse)
        trained, history = train(**call, memo=memo)
        assert [h.report for h in history] == [None] * call["cfg"].epochs
        assert bits(trained, []) == bits(evaluated[0], [])
        assert [h.loss for h in history] == [h.loss for h in evaluated[1]]
        assert not loop_runs(lambda: train(**call, memo=memo))

    def test_a_hit_hands_out_copies(self):
        call, memo = memo_call(), {}
        first, _ = train(**call, memo=memo)
        first.weights[0][:] = 0.0
        again, _ = train(**call, memo=memo)
        assert bits(again, []) == bits(train(**call)[0], [])

    @pytest.mark.parametrize("failure", ["loss at", "parameters after", "evaluation scores after"],
                             ids=["loss", "parameters", "scores"])
    def test_a_failed_training_is_not_stored(self, loop_runs, failure):
        toy = toy_dataset(seed=21)
        cfg = TrainConfig(epochs=2, batch_size=32, lr=0.0, optimizer="sgd", seed=22)
        # the failing inputs of the two non-finite tests of TestTrain
        model = MlpModel([np.full((3, 4), 2.0)], [np.zeros(3)], "tanh")
        probe = Dataset(np.array([[1e308, 1e308, -1e308, -1e308]]), np.array([[1, 0, 0]]))
        data, eval_data = (probe, None) if failure == "loss at" else (toy, probe)
        if failure == "parameters after":
            model = init_model([4, 8, 3], "relu", 1.0, seed=23)
            data, eval_data = Dataset(toy.features * 1e2, toy.labels), None
            cfg = dataclasses.replace(cfg, batch_size=data.n, lr=1e308)
        memo, messages = {}, []

        def fail():
            with pytest.raises(ValueError, match=f"non-finite {failure} epoch 1") as e:
                train(model, data, "asl", cfg, eval_data=eval_data, memo=memo)
            messages.append(str(e.value))

        with np.errstate(over="ignore", invalid="ignore"):
            assert loop_runs(fail)
            assert loop_runs(fail)
        assert memo == {}
        assert messages[0] == messages[1]


def steps_of(cells) -> list:
    """Each epoch's parameter rows and loss totals from one batch loop over
    the stack `cells`, copied as the loop goes."""
    return [(theta.reshape(len(cells), -1).copy(), list(totals))
            for theta, totals in mlnl.model._trajectory(cells)]


def stack_jobs(call, modes) -> list:
    """The `train` arguments of memo_call's training under each of `modes`."""
    return [(call["model"], call["data"], mode, call["cfg"], call["params"]) for mode in modes]


def memo_bits(memo: dict) -> dict:
    """Each memo entry's per-epoch parameter and loss-total bytes."""
    return {key: [(theta.tobytes(), np.float64(total).tobytes()) for theta, total in steps]
            for key, steps in memo.items()}


class TestStack:
    """A stack of cells (see model._Objective) trains each cell to the bits
    it gets alone; only the loss mode differs between the cells."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(["asl", "corrected", "all-silver"]), min_size=1, max_size=4),
           st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=6),
           st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=2),
           st.sampled_from(["tanh", "relu"]), st.sampled_from(["adam", "sgd"]),
           st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=24),
           st.sampled_from([0.0, 0.5, 2.0]), st.sampled_from([0.0, 0.5, 4.0]),
           st.sampled_from([0.0, 0.05, 0.2]), st.integers(min_value=0, max_value=2 ** 32))
    def test_each_cell_trains_as_it_would_alone(self, kinds, k, d, hidden, activation,
                                                optimizer, n, batch_size, gp, gm, margin,
                                                seed):
        rng = np.random.default_rng(seed)
        model = init_model([d, *hidden, k], activation, float(rng.uniform(0.5, 2.0)),
                           seed=seed % 1000)
        x, y = rand_batch(rng, n, d, k)
        data = Dataset(2.0 * x, y.astype(np.uint8))
        cfg = TrainConfig(epochs=3, batch_size=batch_size, lr=2e-2, optimizer=optimizer,
                          seed=seed % 997)
        params = AslParams(gp, gm, margin)
        cells = []
        for kind in kinds:
            mode = "asl"
            if kind != "asl":
                matrix = rng.uniform(size=(k, k)) + np.eye(k) * rng.uniform(0, 3)
                gold = None if kind == "all-silver" else rng.uniform(size=n) < 0.3
                mode = CorrectedMode(matrix, gold)
            cells.append(mlnl.model._Cell.of(model, data, mode, cfg, params))
        stacked = steps_of(cells)
        assert len(stacked) == cfg.epochs
        for c, cell in enumerate(cells):
            alone = steps_of([cell])
            assert [(rows[c].tobytes(), repr(totals[c])) for rows, totals in stacked] == \
                [(rows[0].tobytes(), repr(totals[0])) for rows, totals in alone]

    def test_a_stack_of_one_is_the_training_loop(self, loop_runs):
        """fill_memo stores what train stores, under the key it looks up."""
        call, memo = memo_call(), {}
        trained = {}
        train(**call, memo=trained)
        mlnl.model.fill_memo(stack_jobs(call, [call["loss_mode"]]), memo)
        assert memo_bits(memo) == memo_bits(trained)
        assert not loop_runs(lambda: train(**call, memo=memo))

    def test_a_diverging_cell_fails_alone(self, loop_runs):
        """A NaN correction matrix makes one cell's loss non-finite in the
        first batch: the stack stores nothing, each other cell's `train`
        runs its loop alone to the bits of a stack without that cell, and
        the diverging cell's `train` fails as it does alone."""
        call = memo_call()
        good, plain = call["loss_mode"], "asl"
        bad = CorrectedMode(np.full((3, 3), np.nan), good.gold_mask)
        memo, clean = {}, {}
        assert loop_runs(lambda: mlnl.model.fill_memo(stack_jobs(call, [plain, bad, good]), memo))
        assert memo == {}
        mlnl.model.fill_memo(stack_jobs(call, [plain, good]), clean)
        for mode in (plain, good):
            assert loop_runs(lambda: train(**dict(call, loss_mode=mode), memo=memo))
        assert len(clean) == 2 and memo_bits(memo) == memo_bits(clean)
        with pytest.raises(ValueError, match="^non-finite loss at epoch 1, batch 1$"):
            train(**dict(call, loss_mode=bad), memo=memo)
        assert len(memo) == 2

    def test_a_stack_whose_parameters_diverge_stores_nothing(self, loop_runs):
        """The `parameters after` inputs of test_a_failed_training_is_not_stored
        in a stack of two cells, plain and corrected with every sample gold
        (an identity matrix would read as plain): the step after the first
        batch overflows every cell's parameters, so the stack stores nothing
        and each cell's `train` fails alone."""
        toy = toy_dataset(seed=21)
        data = Dataset(toy.features * 1e2, toy.labels)
        call = {"model": init_model([4, 8, 3], "relu", 1.0, seed=23), "data": data,
                "cfg": TrainConfig(epochs=2, batch_size=data.n, lr=1e308, optimizer="sgd",
                                   seed=22),
                "params": AslParams()}
        modes = ["asl", CorrectedMode(0.7 * np.eye(3) + 0.1, np.ones(data.n, dtype=bool))]
        memo = {}
        with np.errstate(over="ignore", invalid="ignore"):
            assert loop_runs(lambda: mlnl.model.fill_memo(stack_jobs(call, modes), memo))
            assert memo == {}
            for mode in modes:
                with pytest.raises(ValueError, match="^non-finite parameters after epoch 1$"):
                    train(**dict(call, loss_mode=mode), memo=memo)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        m = rand_model(sizes=(5, 7, 3), seed=20)
        path = tmp_path / "m.mlpm"
        save_model(m, path)
        back = load_model(path)
        assert back.activation == m.activation
        assert back.layer_sizes == m.layer_sizes
        for a, b in zip(m.weights + m.biases, back.weights + back.biases):
            np.testing.assert_array_equal(a, b)

    def test_header_format(self, tmp_path):
        m = rand_model(sizes=(5, 7, 3), seed=21)
        path = tmp_path / "m.mlpm"
        save_model(m, path)
        head = path.read_text().splitlines()[0]
        assert head == "MLPM v1 5 7 3 tanh"


# Reference: the per-batch training step that the fused `_Objective` replaced,
# kept verbatim as an oracle (per-layer lists, y*pos + (1-y)*neg on float
# labels, tanh recomputed in the backward pass).

def _ref_clip(p, eps):
    return np.clip(p, eps, 1.0 - eps)


def _ref_asl_terms(pc, y, params):
    gp, gm, m, eps = params.gamma_plus, params.gamma_minus, params.margin, params.clamp_eps
    pos = -np.power(1.0 - pc, gp) * np.log(pc)
    pm = np.minimum(np.maximum(pc - m, 0.0), 1.0 - eps)
    neg = -np.power(pm, gm) * np.log1p(-pm)
    return y * pos + (1.0 - y) * neg


def _ref_asl_dloss_dpc(pc, y, params):
    gp, gm, m = params.gamma_plus, params.gamma_minus, params.margin
    one_m_p = 1.0 - pc
    dpos = -np.power(one_m_p, gp) / pc
    if gp != 0.0:
        dpos = dpos + gp * np.power(one_m_p, gp - 1.0) * np.log(pc)
    pm = np.maximum(pc - m, 0.0)
    active = pc > m
    safe_pm = np.where(active, pm, 0.5)
    dneg = np.where(active, np.power(safe_pm, gm) / (1.0 - safe_pm), 0.0)
    if gm != 0.0:
        dneg = dneg - np.where(
            active, gm * np.power(safe_pm, gm - 1.0) * np.log1p(-safe_pm), 0.0)
    return y * dpos + (1.0 - y) * dneg


def _ref_loss_and_grads(model, x, y, params, mode):
    acts, pre = [x], []
    a = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ w.T + b
        pre.append(z)
        a = np.tanh(z) if model.activation == "tanh" else np.maximum(z, 0.0)
        acts.append(a)
    logits = a @ model.weights[-1].T + model.biases[-1]
    p = sigmoid(logits)
    n = x.shape[0]
    if isinstance(mode, CorrectedMode):
        m = mode.matrix
        gold = (np.zeros(n, dtype=bool) if mode.gold_mask is None
                else np.asarray(mode.gold_mask, dtype=bool))
        eff = p.copy()
        silver = ~gold
        if silver.any():
            eff[silver] = p[silver] @ m
    else:
        eff = p
    effc = _ref_clip(eff, params.clamp_eps)
    loss_rows = _ref_asl_terms(effc, y, params).sum(axis=-1)
    mask = (eff > params.clamp_eps) & (eff < 1.0 - params.clamp_eps)
    d_eff = _ref_asl_dloss_dpc(effc, y, params) * mask
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


class TestStepOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=8),
           st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=2),
           st.sampled_from(["tanh", "relu"]), st.integers(min_value=1, max_value=40),
           st.sampled_from(["asl", "corrected", "all-silver"]),
           st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.sampled_from([0.0, 0.5, 1.0, 4.0]),
           st.sampled_from([0.0, 0.05, 0.2]), st.integers(min_value=0, max_value=2 ** 32))
    def test_fused_step_matches_per_batch_step(self, k, d, hidden, activation, n, mode_kind,
                                               gp, gm, margin, seed):
        rng = np.random.default_rng(seed)
        model = init_model([d, *hidden, k], activation, float(rng.uniform(0.5, 3.0)),
                           seed=seed % 1000)
        x = rng.normal(scale=2.0, size=(n, d))
        y = (rng.uniform(size=(n, k)) < 0.4).astype(np.float64)
        params = AslParams(gp, gm, margin, 1e-7)
        silver = np.arange(0)
        c = None
        if mode_kind == "asl":
            batch_mode = "asl"
        else:
            c = rng.uniform(0.0, 1.0, size=(k, k)) + np.eye(k) * rng.uniform(0, 3)
            gold = None
            silver = np.arange(n)
            if mode_kind == "corrected":
                gold = rng.uniform(size=n) < rng.uniform(0.0, 1.0)
                silver = np.flatnonzero(~gold)
            batch_mode = CorrectedMode(c, gold)
        ref_loss, ref_gw, ref_gb = _ref_loss_and_grads(model, x, y, params, batch_mode)

        objective = _Objective(model, params, [c])
        (loss,) = objective.loss(x, y.astype(bool), {0: silver})
        assert repr(loss) == repr(ref_loss)
        ref_grad = np.concatenate([g.ravel() for g in ref_gw + ref_gb])
        assert objective.grad.tobytes() == ref_grad.tobytes()
        assert objective.loss(x, y.astype(bool), {0: silver}, backward=False) == [loss]
