"""Seeded generators: determinism, normalization, and statistics."""

import numpy as np
import pytest

from ell1.synth import (GenSpec, RNG_NAME, add_noise, corrupt_entries,
                        gen_bouquet_dict, gen_gaussian_dict,
                        gen_sparse_signal, make_instance, trial_seed)


class TestGenSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenSpec(n=10, d=0, k=1, seed=0)
        with pytest.raises(ValueError):
            GenSpec(n=10, d=5, k=11, seed=0)
        with pytest.raises(ValueError):
            GenSpec(n=10, d=5, k=0, seed=0)
        with pytest.raises(ValueError):
            GenSpec(n=10, d=5, k=1, seed=0, noise_sigma=-0.1)


class TestGaussianDict:
    def test_unit_columns(self):
        A = gen_gaussian_dict(30, 50, 7)
        np.testing.assert_allclose(np.linalg.norm(A, axis=0),
                                   np.ones(50), atol=1e-12)

    def test_deterministic(self):
        A1 = gen_gaussian_dict(20, 40, 11)
        A2 = gen_gaussian_dict(20, 40, 11)
        assert np.array_equal(A1, A2)
        A3 = gen_gaussian_dict(20, 40, 12)
        assert not np.array_equal(A1, A3)

    def test_scalar_case(self):
        A = gen_gaussian_dict(1, 1, 3)
        assert A.shape == (1, 1)
        assert abs(abs(A[0, 0]) - 1.0) <= 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_gaussian_dict(0, 5, 0)
        with pytest.raises(ValueError):
            gen_gaussian_dict(5, 0, 0)


class TestSparseSignal:
    def test_exact_sparsity(self):
        x = gen_sparse_signal(100, 7, 5)
        assert int(np.sum(x != 0.0)) == 7

    def test_unit_norm(self):
        x = gen_sparse_signal(100, 7, 5)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12

    def test_full_support(self):
        x = gen_sparse_signal(6, 6, 2)
        assert np.all(x != 0.0)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12

    def test_deterministic(self):
        assert np.array_equal(gen_sparse_signal(50, 5, 9),
                              gen_sparse_signal(50, 5, 9))

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_sparse_signal(5, 0, 0)
        with pytest.raises(ValueError):
            gen_sparse_signal(5, 6, 0)


class TestAddNoise:
    def test_zero_sigma_copies(self):
        b = np.arange(5.0)
        out = add_noise(b, 0.0, 1)
        assert np.array_equal(out, b)
        out[0] = 99.0
        assert b[0] == 0.0

    def test_moment_statistics(self):
        # one million draws at sigma 0.1: sample mean within four standard
        # errors of zero, sample variance within two percent of sigma^2
        sigma = 0.1
        draws = add_noise(np.zeros(1000000), sigma, 12345)
        assert abs(float(np.mean(draws))) <= 4.0 * sigma / 1000.0
        assert abs(float(np.var(draws)) - sigma ** 2) <= 0.02 * sigma ** 2

    def test_deterministic(self):
        b = np.ones(64)
        assert np.array_equal(add_noise(b, 0.5, 3), add_noise(b, 0.5, 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            add_noise(np.ones(3), -1.0, 0)


class TestCorruptEntries:
    def test_zero_fraction(self):
        b = np.arange(10.0)
        out, mask = corrupt_entries(b, 0.0, -1.0, 1.0, 4)
        assert np.array_equal(out, b)
        assert not np.any(mask)

    def test_full_fraction(self):
        b = np.full(50, 100.0)
        out, mask = corrupt_entries(b, 1.0, -1.0, 1.0, 4)
        assert np.all(mask)
        assert np.all((out >= -1.0) & (out <= 1.0))

    def test_mask_count(self):
        b = np.zeros(100)
        out, mask = corrupt_entries(b, 0.4, 0.0, 1.0, 8)
        assert int(np.sum(mask)) == 40
        assert np.array_equal(out[~mask], b[~mask])

    def test_deterministic(self):
        b = np.linspace(0, 1, 30)
        o1, m1 = corrupt_entries(b, 0.3, -2.0, 2.0, 6)
        o2, m2 = corrupt_entries(b, 0.3, -2.0, 2.0, 6)
        assert np.array_equal(o1, o2) and np.array_equal(m1, m2)

    def test_validation(self):
        with pytest.raises(ValueError):
            corrupt_entries(np.ones(4), 1.5, 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            corrupt_entries(np.ones(4), 0.5, 1.0, 0.0, 0)


class TestBouquetDict:
    def test_unit_columns_and_labels(self):
        A, labels = gen_bouquet_dict(60, 143, 20, 0.6, 3)
        np.testing.assert_allclose(np.linalg.norm(A, axis=0),
                                   np.ones(143), atol=1e-12)
        sizes = np.bincount(labels, minlength=20)
        assert int(np.sum(sizes)) == 143
        assert sizes.max() - sizes.min() <= 1
        assert np.array_equal(labels, np.sort(labels))

    def test_high_coherence_bunches_columns(self):
        A, _ = gen_bouquet_dict(100, 200, 20, 0.98, 0)
        G = A.T @ A
        iu = np.triu_indices(200, 1)
        assert float(np.mean(G[iu])) >= 0.9

    def test_low_coherence_approaches_gaussian(self):
        A, _ = gen_bouquet_dict(100, 200, 20, 0.05, 0)
        G = A.T @ A
        iu = np.triu_indices(200, 1)
        assert float(np.mean(np.abs(G[iu]))) <= 2.0 / np.sqrt(100)

    def test_within_group_beats_cross_group(self):
        A, labels = gen_bouquet_dict(100, 200, 20, 0.6, 5)
        G = A.T @ A
        iu = np.triu_indices(200, 1)
        same = (labels[:, None] == labels[None, :])[iu]
        assert float(np.mean(G[iu][same])) > float(np.mean(G[iu][~same]))

    def test_deterministic(self):
        A1, l1 = gen_bouquet_dict(30, 50, 10, 0.7, 9)
        A2, l2 = gen_bouquet_dict(30, 50, 10, 0.7, 9)
        assert np.array_equal(A1, A2) and np.array_equal(l1, l2)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_bouquet_dict(10, 20, 5, 0.0, 0)
        with pytest.raises(ValueError):
            gen_bouquet_dict(10, 20, 5, 1.0, 0)
        with pytest.raises(ValueError):
            gen_bouquet_dict(10, 20, 21, 0.5, 0)


class TestMakeInstance:
    def test_noiseless_consistency(self):
        P = make_instance(GenSpec(n=40, d=20, k=3, seed=6))
        assert np.array_equal(P.b, P.A @ P.ground_truth)
        assert P.noise_sigma == 0.0
        assert int(np.sum(P.ground_truth != 0.0)) == 3

    def test_noise_recorded_and_applied(self):
        P = make_instance(GenSpec(n=40, d=20, k=3, seed=6,
                                  noise_sigma=0.05))
        assert P.noise_sigma == 0.05
        assert not np.array_equal(P.b, P.A @ P.ground_truth)

    def test_deterministic(self):
        spec = GenSpec(n=40, d=20, k=3, seed=7, noise_sigma=0.01)
        P1, P2 = make_instance(spec), make_instance(spec)
        assert np.array_equal(P1.A, P2.A) and np.array_equal(P1.b, P2.b)


class TestTrialSeed:
    def test_stable_and_distinct(self):
        s = trial_seed(42, 1, 2)
        assert s == trial_seed(42, 1, 2)
        assert s != trial_seed(42, 2, 1)
        assert s != trial_seed(43, 1, 2)
        assert 0 <= s < 2 ** 64

    def test_generator_documented(self):
        assert "PCG64" in RNG_NAME
