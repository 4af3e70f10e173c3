import tracemalloc

import numpy as np
import pytest

from m2t.data import (
    AugmentSpec,
    Dataset,
    IdxFormatError,
    load_idx,
    make_views,
    synth_clusters,
    write_idx_images,
    write_idx_labels,
)


class TestSynthClusters:
    def test_zero_spread_collapses_to_class_means(self):
        ds = synth_clusters(num_classes=3, dim=4, per_class=5, spread=0.0, seed=0)
        for c in range(3):
            block = ds.samples[ds.labels == c]
            assert np.all(block == block[0])
            assert np.linalg.norm(block[0]) == pytest.approx(1.0)

    def test_same_seed_same_dataset(self):
        a = synth_clusters(4, 8, 10, 0.3, seed=7)
        b = synth_clusters(4, 8, 10, 0.3, seed=7)
        assert a.samples.tobytes() == b.samples.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_small_spread_is_linearly_separable(self):
        # Sanity oracle: nearest-class-mean classification on raw features.
        ds = synth_clusters(2, 8, 200, 0.1, seed=1)
        means = np.stack([ds.samples[ds.labels == c].mean(axis=0)
                          for c in range(2)])
        pred = np.argmin(
            ((ds.samples[:, None, :] - means[None]) ** 2).sum(-1), axis=1)
        assert (pred == ds.labels).mean() > 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_clusters(1, 8, 10, 0.1, seed=0)
        with pytest.raises(ValueError):
            synth_clusters(2, 1, 10, 0.1, seed=0)


class TestDataset:
    def test_rejects_nan(self):
        bad = np.ones((3, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(samples=bad, labels=np.zeros(3, dtype=int))

    def test_finite_check_needs_one_mask(self):
        # 2 MB of samples: one boolean mask is an eighth of them.
        samples = np.ones((8192, 32))
        tracemalloc.start()
        try:
            Dataset(samples=samples, labels=np.zeros(8192, dtype=int))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.2 * samples.nbytes

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(samples=np.ones((3, 2)), labels=np.zeros(2, dtype=int))


class TestIdx:
    def _fixture(self, tmp_path, n=4, hw=(28, 28)):
        rng = np.random.default_rng(0)
        samples = rng.random((n, hw[0] * hw[1]))
        samples[0, 0] = 1.0  # pixel 255 after quantization
        labels = np.arange(n) % 3
        img_path = tmp_path / "images.idx"
        lbl_path = tmp_path / "labels.idx"
        write_idx_images(samples, hw, img_path)
        write_idx_labels(labels, lbl_path)
        return img_path, lbl_path, samples, labels

    def test_fixture_roundtrip_shapes(self, tmp_path):
        img, lbl, _, labels = self._fixture(tmp_path)
        ds = load_idx(img, lbl)
        assert ds.samples.shape == (4, 784)
        assert ds.image_hw == (28, 28)
        np.testing.assert_array_equal(ds.labels, labels)

    def test_pixel_255_scales_to_one(self, tmp_path):
        img, lbl, _, _ = self._fixture(tmp_path)
        ds = load_idx(img, lbl)
        assert ds.samples[0, 0] == 1.0

    def test_byte_exact_roundtrip(self, tmp_path):
        # write -> load -> inverse scaling reproduces the quantized bytes.
        img, lbl, samples, _ = self._fixture(tmp_path)
        ds = load_idx(img, lbl)
        original_bytes = np.clip(np.round(samples * 255), 0, 255).astype(np.uint8)
        recovered = np.round(ds.samples * 255).astype(np.uint8)
        np.testing.assert_array_equal(recovered, original_bytes)

    def test_load_holds_one_float64_copy(self, tmp_path):
        # 1000 16x16 images: the file's bytes, the 2 MB of float64 samples
        # and the finite check's mask are 1.25 times the samples; a second
        # float64 temporary would make it 2.125.
        img, lbl, _, _ = self._fixture(tmp_path, n=1000, hw=(16, 16))
        tracemalloc.start()
        try:
            ds = load_idx(img, lbl)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * ds.samples.nbytes

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"\x00\x00\x12\x34" + b"\x00" * 16)
        with pytest.raises(IdxFormatError, match="magic") as exc:
            load_idx(path)
        assert exc.value.offset == 0

    def test_truncated_file_rejected(self, tmp_path):
        img, _, _, _ = self._fixture(tmp_path)
        data = img.read_bytes()
        short = tmp_path / "short.idx"
        short.write_bytes(data[:100])
        with pytest.raises(IdxFormatError, match="ends before"):
            load_idx(short)

    def test_label_count_mismatch_rejected(self, tmp_path):
        img, _, _, _ = self._fixture(tmp_path, n=4)
        lbl = tmp_path / "short_labels.idx"
        write_idx_labels(np.zeros(3, dtype=int), lbl)
        with pytest.raises(IdxFormatError, match="count"):
            load_idx(img, lbl)

    def test_images_without_labels(self, tmp_path):
        img, _, _, _ = self._fixture(tmp_path)
        ds = load_idx(img)
        np.testing.assert_array_equal(ds.labels, 0)


class TestMakeViews:
    def test_identity_augmentation(self):
        spec = AugmentSpec(solarize_prob_teacher=0.0)
        batch = np.random.default_rng(2).normal(size=(6, 5))
        v, v2 = make_views(batch, spec, seed=0)
        np.testing.assert_array_equal(v, batch)
        np.testing.assert_array_equal(v2, batch)

    def test_same_seed_same_views(self):
        spec = AugmentSpec(noise_std=0.1, mask_prob=0.2,
                           scale_range=(0.8, 1.2))
        batch = np.random.default_rng(3).normal(size=(8, 4))
        a1, a2 = make_views(batch, spec, seed=11)
        b1, b2 = make_views(batch, spec, seed=11)
        assert a1.tobytes() == b1.tobytes()
        assert a2.tobytes() == b2.tobytes()

    def test_views_differ_from_each_other(self):
        spec = AugmentSpec(noise_std=0.1)
        batch = np.zeros((4, 4))
        v, v2 = make_views(batch, spec, seed=5)
        assert not np.array_equal(v, v2)

    def test_full_mask_zeroes_views(self):
        spec = AugmentSpec(mask_prob=1.0, solarize_prob_teacher=0.0)
        batch = np.random.default_rng(4).normal(size=(4, 4))
        v, v2 = make_views(batch, spec, seed=9)
        np.testing.assert_array_equal(v, 0.0)
        np.testing.assert_array_equal(v2, 0.0)

    def test_solarization_is_role_asymmetric(self):
        spec = AugmentSpec(solarize_prob_student=0.0, solarize_prob_teacher=1.0)
        batch = np.full((10, 3), 0.9)
        v, v2 = make_views(batch, spec, seed=1)
        np.testing.assert_array_equal(v, 0.9)
        np.testing.assert_allclose(v2, 0.1, atol=1e-12)

    def test_never_introduces_non_finite(self):
        spec = AugmentSpec(noise_std=0.5, mask_prob=0.3, scale_range=(0.5, 2.0))
        batch = np.random.default_rng(6).normal(size=(32, 8))
        for seed in range(20):
            v, v2 = make_views(batch, spec, seed=seed)
            assert np.all(np.isfinite(v)) and np.all(np.isfinite(v2))

    def test_noise_only_augmentation_is_unbiased(self):
        # Monte-Carlo: the mean over many draws stays within 3 sigma of the
        # sample itself, per coordinate, for purely additive noise.
        spec = AugmentSpec(noise_std=0.2, solarize_prob_teacher=0.0)
        batch = np.random.default_rng(7).normal(size=(1, 6))
        draws = 10_000
        acc = np.zeros(6)
        for seed in range(draws):
            v, _ = make_views(batch, spec, seed=seed)
            acc += v[0]
        mc_mean = acc / draws
        tol = 3 * 0.2 / np.sqrt(draws)
        np.testing.assert_allclose(mc_mean, batch[0], atol=tol)

    def test_flip_and_crop_on_images(self):
        rng = np.random.default_rng(8)
        hw = (6, 6)
        batch = rng.random((5, 36))
        spec = AugmentSpec(flip=True, crop_pad=2, solarize_prob_teacher=0.0)
        v, v2 = make_views(batch, spec, seed=3, image_hw=hw)
        assert v.shape == batch.shape and v2.shape == batch.shape
        assert np.all(np.isfinite(v))

    def test_bad_role_rejected(self):
        spec = AugmentSpec()
        with pytest.raises(ValueError, match="role"):
            make_views(np.zeros((2, 2)), spec, seed=0,
                       roles=("student_view", "nonsense"))
