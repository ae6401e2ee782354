"""Byte-level pins of the data layer: generator output, the measured
corruption matrix and the dataset text format.

The SHA-256 values were computed with the per-sample, per-label reference
loops that the array code replaced, and must never be re-pinned: a rewrite
of `generate`, `empirical_matrix`, `write_dataset` or `read_dataset` is
correct only if it reproduces these bytes.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from mlnl.datagen import Dataset, GenConfig, datasets_equal, generate, read_dataset, write_dataset
from mlnl.harness import ExperimentConfig
from mlnl.noise import NoiseSpec, empirical_matrix, inject
from mlnl.numerics import RandomStream


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sweep_gen(master_seed: int) -> GenConfig:
    """The default sweep's generator config, seeded as `prepare_data` seeds it."""
    return dataclasses.replace(ExperimentConfig().gen,
                               seed=RandomStream(master_seed).derive_seed("datagen"))


def large_gen(master_seed: int) -> GenConfig:
    """The benchmark's data-large generator config: n=30000, K=20, rho=1."""
    return dataclasses.replace(sweep_gen(master_seed), n=30000, k=20,
                               mean_labels_per_sample=4.0, correlation_strength=1.0)


GEN_CASES = {
    "sweep-seed0": lambda: sweep_gen(0),
    "sweep-seed7": lambda: sweep_gen(7),
    "large-seed0": lambda: large_gen(0),
    "large-seed7": lambda: large_gen(7),
    "k2-rho0.8": lambda: GenConfig(n=500, d=3, k=2, mean_labels_per_sample=2.0,
                                   correlation_strength=0.8, seed=2),
    "k3-rho1": lambda: GenConfig(n=3000, d=5, k=3, mean_labels_per_sample=2.0,
                                 correlation_strength=1.0, seed=3),
    "k4-rho1": lambda: GenConfig(n=3000, d=5, k=4, mean_labels_per_sample=2.5,
                                 imbalance_exponent=0.5, correlation_strength=1.0, seed=4),
    "k12-rho0.5": lambda: GenConfig(n=5000, d=6, k=12, mean_labels_per_sample=3.5,
                                    imbalance_exponent=1.5, correlation_strength=0.5, seed=12),
    "k20-rho0": lambda: GenConfig(n=4000, d=4, k=20, mean_labels_per_sample=6.0,
                                  imbalance_exponent=2.0, correlation_strength=0.0, seed=5),
}

# (features sha256, labels sha256)
GEN_DIGESTS = {
    "sweep-seed0": ("e6d459936f75453f8745934c2ac81081ff7844a7c3f31f63aed804dc06ab52ad",
                    "561955fefeedbc3fdd63a24a7ee8b2e5e8067849cda9e36dd6ea2de8500787b6"),
    "sweep-seed7": ("7cf7981574a75bbaff5d180af97bacea6eb43bd10ddd20ea02c82b88a0d182d6",
                    "61a5b99a8a620faa2332b292c31f1c389cceeaa950f50c1b5637aa7edd8e9c05"),
    "large-seed0": ("7c61b6520b8a627df304bac00c39db5431b3d69c9ddb831f3873e01d7bcbc9e3",
                    "7d0612074a192847028fe742a804077c44de334fb1aa73c996b0bb8999d2dbcd"),
    "large-seed7": ("c51002ab79ebe059e8adb5bd75cabc1a9388c8e4aac71a0cda1f953b48ba2758",
                    "0dbad0d3e6242333bc10f26688bd3ee27188507e6c1693d959083b9856693a27"),
    "k2-rho0.8": ("6452815932b1d82cf7d916d0d62bf47b597333c1c93e02988366731deb70ffe7",
                  "04766bca010b9dd820a55da05f5bb33cc3e036447cd9fac5542341480564bd95"),
    "k3-rho1": ("419d547639d64d7018d25b0c4fb7a2d8679f5fe11554c3aee99275d7f754f32c",
                "ff2b8bf821450b9618527b6791519b7911b8567d4820259fe1959322abd5fde6"),
    "k4-rho1": ("b67701bbd666632a524ad38bb64427e11fa23624af6d6a47a8a19b948d50ac44",
                "582d451045c61d7e10735c9005e035021ce46c9cfd3eace9784029a9aeef1b77"),
    "k12-rho0.5": ("ecacc9e609e60c7fd3be67a99aca8ec97b91682a7eb8b50653e5555a0dfde439",
                   "74419f7b844aa2473c8319a07f6897bba1e6066784d36f6c0aa5a58f1a876baf"),
    "k20-rho0": ("bf31491c973aa4b27122309452f2926afa7fd58d781a61e5a54a0758a076b310",
                 "73f9c24008d0cc4833fd1241cf758743fe8970f88d6e3e135cec149880f944db"),
}

EMPIRICAL_CASES = {
    "k8-eta0.4": (GenConfig(n=6000, d=4, k=8, mean_labels_per_sample=2.4,
                            imbalance_exponent=1.0, correlation_strength=0.7, seed=11), 0.4),
    "k20-eta0.6": (GenConfig(n=8000, d=4, k=20, mean_labels_per_sample=4.0,
                             correlation_strength=1.0, seed=21), 0.6),
}

# sha256 of the matrix bytes, and the classes flagged as missing
EMPIRICAL_DIGESTS = {
    "k8-eta0.4": ("20c49d5f10846e68b9a70839bc38345a2b5ec21c09b4bd010dbabb40a03b37bf", []),
    "k20-eta0.6": ("58b3c0877f0fe1c86b02ee9983a759accb0e5a4b29532482d53bd42d02d5be2c", []),
}

FILE_DIGESTS = {
    "clean": "8a76f0fe151691c3cdff009aae28ace3f23cabc91df75ec5878d3b1df16a13fe",
    "noisy": "a703ffecfc0258cf9b7364006dda78b154b54a77ae69ab7f82da1e705ad13471",
    "edge-values": "0a771cc9e9c2bdfe0787463f88b67dd6bb002253413c69f0e5a00c60a9794901",
}


def file_datasets() -> dict[str, Dataset]:
    """The clean dataset spans several 1024-row write chunks."""
    clean = generate(GEN_CASES["k12-rho0.5"]())
    noisy, _ = inject(clean, NoiseSpec(0.4, seed=19))
    feats = np.array([[0.0, -0.0, 1.0, -2.5],
                      [1e-310, -5e-324, 1.7976931348623157e308, 0.1],
                      [123456789.0, 1e16, 1e-5, -1.0 / 3.0]])
    labels = np.array([[1, 0, 0], [0, 1, 1], [1, 1, 0]], dtype=np.uint8)
    return {"clean": clean, "noisy": noisy, "edge-values": Dataset(feats, labels)}


@pytest.mark.parametrize("name", sorted(GEN_CASES))
def test_generate_bytes_pinned(name):
    ds = generate(GEN_CASES[name]())
    assert (sha(ds.features.tobytes()), sha(ds.labels.tobytes())) == GEN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(EMPIRICAL_CASES))
def test_empirical_matrix_bytes_pinned(name):
    gen_cfg, eta = EMPIRICAL_CASES[name]
    clean = generate(gen_cfg)
    noisy, _ = inject(clean, NoiseSpec(eta, seed=gen_cfg.seed + 100))
    cm, missing = empirical_matrix(clean, noisy)
    assert (sha(cm.matrix.tobytes()), missing) == EMPIRICAL_DIGESTS[name]


def test_dataset_file_bytes_pinned_and_read_back(tmp_path):
    for name, ds in file_datasets().items():
        path = tmp_path / f"{name}.mlnl"
        write_dataset(ds, path)
        assert sha(path.read_bytes()) == FILE_DIGESTS[name], name
        back = read_dataset(path)
        assert datasets_equal(back, ds), name
        assert back.features.tobytes() == ds.features.tobytes(), name
