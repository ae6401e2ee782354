"""Byte-level pins of the trainer and the per-epoch evaluation path.

The SHA-256 values were computed with the per-batch training step (one
forward, loss and gradient pass per batch through per-tensor lists, a
per-tensor Adam update, a softmax computed on every forward call and a
stable argsort in every AP) that the fused trainer replaced. They must never
be re-pinned: a rewrite of `train`, `forward`, `sigmoid` or
`average_precision` is correct only if it reproduces these bytes.
"""

import hashlib
from functools import lru_cache

import numpy as np
import pytest

from mlnl import estimator, harness, noise
from mlnl.datagen import Dataset, GenConfig
from mlnl.metrics import mean_ap
from mlnl.model import AslParams, CorrectedMode, TrainConfig, forward, init_model, train
from mlnl.noise import NoiseSpec
from mlnl.numerics import sigmoid


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def weights_digest(model) -> str:
    return sha(b"".join(np.ascontiguousarray(t).tobytes()
                        for t in model.weights + model.biases))


def history_digest(history) -> str:
    rows = [repr((h.loss, h.report.map, h.report.cf1, h.report.of1)) for h in history]
    return sha("\n".join(rows).encode())


@lru_cache(maxsize=None)
def small_data():
    """A small default-shaped experiment: data splits plus a 0.4-noise silver set."""
    cfg = harness.ExperimentConfig(
        gen=GenConfig(n=900, d=10, k=5, mean_labels_per_sample=2.2,
                      feature_noise_sigma=1.5, correlation_strength=0.7, seed=0),
        seed=3)
    data = harness.prepare_data(cfg)
    noisy, _ = noise.inject(data.silver_clean, NoiseSpec(0.4, seed=11))
    combined = Dataset(np.concatenate([data.gold.features, noisy.features]),
                       np.concatenate([data.gold.labels, noisy.labels]), tag="noisy")
    gold_mask = np.zeros(combined.n, dtype=bool)
    gold_mask[:data.gold.n] = True
    return data, noisy, combined, gold_mask


def silver_run(sizes=(10, 16, 5), activation="tanh", params=None, **cfg):
    data, noisy, _, _ = small_data()
    tc = TrainConfig(**{"epochs": 4, "batch_size": 64, "lr": 2e-3, "seed": 21, **cfg})
    m0 = init_model(list(sizes), activation, 1.0, seed=20)
    return train(m0, noisy, "asl", tc, params or AslParams(), eval_data=data.test)


def corrected_run(mode_of):
    data, noisy, combined, gold_mask = small_data()
    silver, _ = silver_run()
    mode = mode_of(data, silver, gold_mask)
    m0 = init_model([10, 16, 5], "tanh", 1.0, seed=30)
    tc = TrainConfig(epochs=4, batch_size=64, lr=2e-3, seed=31)
    return train(m0, combined, mode, tc, AslParams(), eval_data=data.test)


def galc_normalized_raw(data, silver, gold_mask):
    regs = estimator.compute_regulators(silver, data.singles_pool)
    report = estimator.estimate_galc_slr(silver, data.gold, regs)
    return CorrectedMode(harness.training_matrix(report, "normalized_raw"), gold_mask)


def unnormalized_all_silver(data, silver, gold_mask):
    k = 5
    c = 0.6 * np.eye(k) + 0.1 * np.arange(1, k * k + 1).reshape(k, k) / (k * k)
    return CorrectedMode(c, None, normalize=True)


TRAIN_CASES = {
    "plain-eta0.4": lambda: silver_run(),
    "corrected-gold-normalized-raw": lambda: corrected_run(galc_normalized_raw),
    "corrected-normalize-all-silver": lambda: corrected_run(unnormalized_all_silver),
    "sgd": lambda: silver_run(optimizer="sgd", lr=0.05),
    "relu-two-hidden": lambda: silver_run(sizes=(10, 12, 9, 5), activation="relu"),
    "gp1-gm0-margin0": lambda: silver_run(params=AslParams(1.0, 0.0, 0.0, 1e-7)),
    "ragged-batch": lambda: silver_run(batch_size=50),
}

# (final weights sha256, per-epoch (loss, map, cf1, of1) sha256)
TRAIN_DIGESTS = {
    "corrected-gold-normalized-raw": ("13487d87234c9422f0080f50f8a79f5fba141ec72cdcc23b0e7b6b230650c91c",
                                      "7f4b37db9c2d384931b9d651d4d83d196a2c49d5d24df8c5dd00bda848120829"),
    "corrected-normalize-all-silver": ("7f181c806ba19682bb2432c0218baec038a8b6a5526297c13ad49cb9da4307e1",
                                       "964e1a408ca7f0621c3028c8ed3f0fe6f74879dc350a11f0f525165df001d919"),
    "gp1-gm0-margin0": ("d2385d949bfd5626098c3294174ec813f4a25f50db512f8b5403d465df77276f",
                        "e041540bce0a6d6d72062f957c03ba6d74c2d8256a923c27a130998d3d07e9d5"),
    "plain-eta0.4": ("f467809e6e3e2e0cc18f75954b1760e027fafce67012d5460823969870f5ae3e",
                     "22bd2fe29f0cff9cab73cded9f7746092eb73eb95cef8c5379857614e2e060a0"),
    "ragged-batch": ("883fca210561a85b204883aa49348f63bdf4e36db7a34afe47c59c1a330ba717",
                     "9ed48e8098fdb345cdba66d3cff2b37024090ab8f51f6f3329788fe108e66d18"),
    "relu-two-hidden": ("612558e4bda0eaf7140b52e800fed85772965110806aa8eea51b79f6510f092f",
                        "5eea7237f7938b624fef047cea6784827d6d621a28e147c9c15119f1215308e5"),
    "sgd": ("8dfc78f99482eef051ed87e8ef21239e7dbeb4e9b072e7badc58983441c946a8",
            "66ba87c3c28fe3b4514aebdf4344e486be8ca348a39b9fb5482187bb01cc1c2c"),
}


@pytest.mark.parametrize("case", sorted(TRAIN_CASES))
def test_training_bytes_pinned(case):
    model, history = TRAIN_CASES[case]()
    assert (weights_digest(model), history_digest(history)) == TRAIN_DIGESTS[case]


SIGMOID_INPUT = np.array([0.0, -0.0, np.inf, -np.inf, 700.0, -700.0, np.nan,
                          1e-300, -1e-300, 36.7, -36.7, 745.2, -745.2, 3.5, -3.5])


def test_sigmoid_bytes_pinned():
    assert sha(sigmoid(SIGMOID_INPUT).tobytes()) == SIGMOID_DIGEST


def test_forward_readouts_pinned():
    model = init_model([10, 16, 9, 5], "tanh", 1.5, seed=40)
    x = small_data()[0].test.features
    out = forward(model, x)
    single = forward(model, x[3])
    assert (sha(out.p_sig.tobytes()), sha(out.p_soft.tobytes())) == FORWARD_DIGESTS
    assert (sha(single.p_sig.tobytes()), sha(single.p_soft.tobytes())) == FORWARD_SINGLE_DIGESTS


def test_mean_ap_with_ties_pinned():
    rng = np.random.default_rng(5)
    scores = rng.integers(0, 6, size=(300, 4)) / 5.0
    labels = (rng.uniform(size=(300, 4)) < 0.3).astype(np.uint8)
    m, per_class, _ = mean_ap(scores, labels)
    assert sha(repr(m).encode() + per_class.tobytes()) == MEAN_AP_DIGEST


SIGMOID_DIGEST = "d2f0b1c0149c24a88a09f74a0d70ab22c011f3b5e86ff7b7d7342cbbf6a234aa"
FORWARD_DIGESTS = ("5b9b2e09229f8f9e1a9534794be8a8d525795001c8cb1ce83ad506fd4d2e18fe",
                   "580b61016cd165ddeb1e6401722798157c0fda72d57839d78ee80d10109b16e3")
FORWARD_SINGLE_DIGESTS = ("b7b5ca036af587ab3d32de1faae3916e6441b36d53c6ef018dded26e043e6a3d",
                          "955eb7ac56a504903f82ebdca28aea6042adcb0cc6dbc29dae855c39c261175d")
MEAN_AP_DIGEST = "48cec71ac60835243c3b4d56db4a959f4a2e9895a57cef45a6a393f2f042f7d4"
