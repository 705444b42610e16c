"""Training-schedule formulas and the mIoU metric."""

import math

import numpy as np
import pytest

from edanet.schedmetrics import ClassFrequencies, class_weights, mean_iou, poly_lr
from edanet.tensorops import ShapeError


class TestClassWeights:
    def test_zero_frequency(self):
        (w,) = class_weights(ClassFrequencies([0.0]))
        assert w == pytest.approx(1.0 / math.log(1.12), rel=1e-12)

    def test_full_frequency(self):
        (w,) = class_weights(ClassFrequencies([1.0]))
        assert w == pytest.approx(1.0 / math.log(2.12), rel=1e-12)

    def test_strictly_decreasing_and_positive(self):
        ps = np.linspace(0.0, 1.0, 25)
        ws = class_weights(ClassFrequencies(ps))
        assert all(w > 0 for w in ws)
        for a, b in zip(ws, ws[1:]):
            assert a > b

    def test_domain_violation(self):
        with pytest.raises(ValueError, match="exceed 1"):
            class_weights(ClassFrequencies([0.0], k=0.9))

    def test_probability_range_checked(self):
        with pytest.raises(ValueError):
            ClassFrequencies([1.5])
        with pytest.raises(ValueError):
            ClassFrequencies([0.5], k=-1.0)


class TestPolyLr:
    def test_initial_rate(self):
        assert poly_lr(5e-4, 0, 1000) == pytest.approx(5e-4, rel=1e-12)

    def test_final_rate_is_zero(self):
        assert poly_lr(5e-4, 1000, 1000) == 0.0

    def test_midpoint(self):
        want = 5e-4 * 0.5 ** 0.9
        assert poly_lr(5e-4, 500, 1000, power=0.9) == pytest.approx(want, rel=1e-12)

    def test_non_increasing(self):
        rates = [poly_lr(1e-3, i, 100) for i in range(101)]
        for a, b in zip(rates, rates[1:]):
            assert b <= a

    def test_linear_in_base(self):
        assert poly_lr(2e-3, 30, 100) == pytest.approx(2 * poly_lr(1e-3, 30, 100))

    def test_iter_out_of_range(self):
        with pytest.raises(ValueError):
            poly_lr(1e-3, 101, 100)
        with pytest.raises(ValueError):
            poly_lr(1e-3, -1, 100)

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_max_iter_not_positive(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be positive"):
            poly_lr(1e-3, 0, max_iter)


class TestMeanIou:
    def test_perfect_prediction(self):
        gt = np.array([[0, 1], [2, 2]], np.int32)
        ious, miou = mean_iou(gt, gt, classes=3)
        assert miou == 1.0
        assert np.nanmin(ious) == 1.0

    def test_disjoint_prediction(self):
        pred = np.zeros((2, 2), np.int32)
        gt = np.ones((2, 2), np.int32)
        ious, miou = mean_iou(pred, gt, classes=2)
        assert ious[0] == 0.0 and ious[1] == 0.0
        assert miou == 0.0

    def test_hand_counted_2x2(self):
        pred = np.array([[0, 0], [1, 1]], np.int32)
        gt = np.array([[0, 1], [1, 1]], np.int32)
        ious, miou = mean_iou(pred, gt, classes=2)
        assert ious[0] == pytest.approx(1 / 2, rel=1e-12)
        assert ious[1] == pytest.approx(2 / 3, rel=1e-12)
        assert miou == pytest.approx(7 / 12, rel=1e-12)

    def test_absent_class_excluded_from_mean(self):
        pred = np.zeros((2, 2), np.int32)
        gt = np.zeros((2, 2), np.int32)
        ious, miou = mean_iou(pred, gt, classes=5)
        assert np.isnan(ious[1:]).all()
        assert miou == 1.0

    def test_ignore_label_excluded(self):
        pred = np.array([[0, 0], [1, 1]], np.int32)
        gt = np.array([[0, 255], [1, 1]], np.int32)
        ious, miou = mean_iou(pred, gt, classes=2, ignore_label=255)
        assert ious[0] == 1.0 and ious[1] == 1.0
        assert miou == 1.0

    def test_ignore_value_in_pred_counts_as_miss(self):
        pred = np.array([[255, 0]], np.int32)
        gt = np.array([[0, 0]], np.int32)
        ious, miou = mean_iou(pred, gt, classes=2, ignore_label=255)
        assert ious[0] == pytest.approx(1 / 2)
        assert miou == pytest.approx(1 / 2)

    def test_pixel_permutation_invariance(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 4, (6, 6)).astype(np.int32)
        gt = rng.integers(0, 4, (6, 6)).astype(np.int32)
        _, miou = mean_iou(pred, gt, classes=4)
        perm = rng.permutation(36)
        _, miou_p = mean_iou(pred.reshape(-1)[perm].reshape(6, 6),
                             gt.reshape(-1)[perm].reshape(6, 6), classes=4)
        assert miou == pytest.approx(miou_p, rel=1e-12)

    def test_consistent_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        pred = rng.integers(0, 4, (5, 5)).astype(np.int32)
        gt = rng.integers(0, 4, (5, 5)).astype(np.int32)
        relabel = np.array([2, 3, 0, 1])
        _, miou = mean_iou(pred, gt, classes=4)
        _, miou_r = mean_iou(relabel[pred], relabel[gt], classes=4)
        assert miou == pytest.approx(miou_r, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mean_iou(np.zeros((2, 2), np.int32), np.zeros((2, 3), np.int32), 2)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            mean_iou(np.full((2, 2), 7, np.int32), np.zeros((2, 2), np.int32), 2)
