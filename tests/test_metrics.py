import csv
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bevprobe.assignment import MatchConfig, classify_stage, match_thresholds
from bevprobe.geometry import BevBox, BoxColumns
from bevprobe.metrics import (
    ApResult,
    RecallConfig,
    RecallReport,
    ap_center_distance,
    average_recall,
    classwise_recall,
    false_negative_indices,
    merge_reports,
    recall_report_rows,
    recall_report_to_dict,
    write_recall_csv,
)

RNG = np.random.default_rng


def gt(cx, cy, class_id=0):
    return BevBox(cx, cy, 4.0, 2.0, 0.0, class_id)


def pred(cx, cy, class_id=0, score=0.5):
    return BevBox(cx, cy, 4.0, 2.0, 0.0, class_id, score=score)


def ladder_fixture():
    """Four ground truths with one prediction each at increasing offsets.

    Offsets 0.3 / 1.5 / 3.0 / 8.0 m against thresholds (0.5, 1, 2, 4)
    give recalls 0.25, 0.25, 0.5, 0.75 and mean 0.4375.
    """
    gts = [gt(0.0, 0.0), gt(10.0, 0.0), gt(20.0, 0.0), gt(30.0, 0.0)]
    preds = [
        pred(0.3, 0.0, score=0.9),
        pred(11.5, 0.0, score=0.8),
        pred(23.0, 0.0, score=0.7),
        pred(38.0, 0.0, score=0.6),
    ]
    return preds, gts


def stored_recalls(reports, thresholds):
    """Pooled recalls by the formulas the report once stored beside its
    counts: an oracle for the derived properties, compared with ``==``."""
    num_gt = sum(r.num_gt for r in reports)
    if num_gt == 0:
        return {t: 1.0 for t in thresholds}, 1.0, {}, True
    matched = {t: sum(r.num_matched.get(t, 0) for r in reports) for t in thresholds}
    class_gt, class_matched = {}, {}
    for r in reports:
        for c, n in r.per_class_gt.items():
            class_gt[c] = class_gt.get(c, 0) + n
            bucket = class_matched.setdefault(c, {t: 0 for t in thresholds})
            for t in thresholds:
                bucket[t] += r.per_class_matched.get(c, {}).get(t, 0)
    per_threshold = {t: matched[t] / num_gt for t in thresholds}
    per_class = {
        c: {t: class_matched[c][t] / class_gt[c] for t in thresholds} for c in sorted(class_gt)
    }
    mar = sum(per_threshold[t] for t in thresholds) / len(thresholds)
    return per_threshold, mar, per_class, False


def derived(report):
    return (
        report.per_threshold_recall,
        report.mean_average_recall,
        report.per_class_recall,
        report.empty_gt,
    )


def box_lists(num_classes, scored):
    """0-12 boxes on a half-meter lattice, so thresholds split near ties."""
    coord = st.integers(-8, 8).map(lambda v: v * 0.5)
    return st.lists(
        st.builds(
            lambda cx, cy, c, score: BevBox(cx, cy, 4.0, 2.0, 0.0, c, score=score),
            coord, coord, st.integers(0, num_classes - 1),
            st.floats(0.0, 1.0) if scored else st.none(),
        ),
        max_size=12,
    )


class TestRecallConfig:
    def test_defaults(self):
        assert RecallConfig().thresholds == (0.5, 1.0, 2.0, 4.0)
        assert not RecallConfig().class_agnostic

    def test_validation(self):
        with pytest.raises(ValueError):
            RecallConfig(thresholds=())
        with pytest.raises(ValueError):
            RecallConfig(thresholds=(0.0, 1.0))
        with pytest.raises(ValueError):
            RecallConfig(thresholds=(1.0, 1.0))
        with pytest.raises(ValueError):
            RecallConfig(thresholds=(2.0, 1.0))
        with pytest.raises(ValueError, match="finite and positive"):
            RecallConfig(thresholds=(1.0, math.inf))


class TestAverageRecall:
    def test_ladder_fixture_exact(self):
        preds, gts = ladder_fixture()
        report = average_recall(preds, gts)
        assert report.per_threshold_recall == {0.5: 0.25, 1.0: 0.25, 2.0: 0.5, 4.0: 0.75}
        assert report.mean_average_recall == 0.4375
        assert report.num_matched == {0.5: 1, 1.0: 1, 2.0: 2, 4.0: 3}
        assert report.num_gt == 4 and report.num_pred == 4
        assert not report.empty_gt

    def test_empty_gt_is_perfect_and_flagged(self):
        report = average_recall([pred(0, 0)], [])
        assert report.empty_gt
        assert report.mean_average_recall == 1.0
        assert set(report.per_threshold_recall.values()) == {1.0}
        assert report.num_gt == 0 and report.num_pred == 1

    def test_empty_preds_zero(self):
        report = average_recall([], [gt(0, 0, 1), gt(5, 0, 1)])
        assert report.mean_average_recall == 0.0
        assert set(report.per_threshold_recall.values()) == {0.0}
        assert report.per_class_recall == {1: {0.5: 0.0, 1.0: 0.0, 2.0: 0.0, 4.0: 0.0}}
        assert report.num_pred == 0

    def test_class_consistency(self):
        gts = [gt(0, 0, class_id=2)]
        strict = average_recall([pred(0.1, 0.0, class_id=0, score=0.9)], gts)
        agnostic = average_recall(
            [pred(0.1, 0.0, class_id=0, score=0.9)],
            gts,
            RecallConfig(class_agnostic=True),
        )
        assert strict.mean_average_recall == 0.0
        assert agnostic.mean_average_recall == 1.0

    def test_per_class_breakdown(self):
        gts = [gt(0, 0, 0), gt(10, 0, 0), gt(20, 0, 1)]
        preds = [pred(0.2, 0, 0, score=0.9), pred(20.3, 0, 1, score=0.8)]
        report = average_recall(preds, gts)
        assert report.per_class_gt == {0: 2, 1: 1}
        assert report.per_class_recall[0][4.0] == 0.5
        assert report.per_class_recall[1][4.0] == 1.0
        assert report.per_class_matched == {
            0: {0.5: 1, 1.0: 1, 2.0: 1, 4.0: 1},
            1: {0.5: 1, 1.0: 1, 2.0: 1, 4.0: 1},
        }

    def test_one_to_one_matching(self):
        gts = [gt(0, 0)]
        preds = [pred(0.1, 0, score=0.9), pred(-0.1, 0, score=0.8)]
        report = average_recall(preds, gts)
        assert report.num_matched[4.0] == 1

    def test_recall_monotone_in_threshold_fuzz(self):
        rng = RNG(20)
        cfg = RecallConfig(thresholds=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0))
        for _ in range(150):
            n_gt, n_pred = int(rng.integers(1, 12)), int(rng.integers(0, 12))
            gts = [
                gt(float(rng.uniform(-15, 15)), float(rng.uniform(-15, 15)),
                   int(rng.integers(0, 3)))
                for _ in range(n_gt)
            ]
            preds = [
                pred(float(rng.uniform(-15, 15)), float(rng.uniform(-15, 15)),
                     int(rng.integers(0, 3)), score=float(rng.random()))
                for _ in range(n_pred)
            ]
            report = average_recall(preds, gts, cfg)
            vals = [report.per_threshold_recall[t] for t in cfg.thresholds]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            counts = [report.num_matched[t] for t in cfg.thresholds]
            assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_agrees_with_stage_classifier_fuzz(self):
        rng = RNG(21)
        cfg = RecallConfig(thresholds=(1.0, 3.0))
        for _ in range(60):
            gts = [
                gt(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)),
                   int(rng.integers(0, 2)))
                for _ in range(int(rng.integers(1, 8)))
            ]
            preds = [
                pred(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)),
                     int(rng.integers(0, 2)), score=float(rng.random()))
                for _ in range(int(rng.integers(0, 8)))
            ]
            report = average_recall(preds, gts, cfg)
            for t in cfg.thresholds:
                stage = classify_stage(preds, gts, MatchConfig(eta=t))
                assert report.num_matched[t] == len(stage.tp_gt)

    def test_unscored_prediction_rejected(self):
        with pytest.raises(ValueError):
            average_recall([BevBox(0, 0, 4, 2, 0.0, 0)], [gt(0, 0)])

    def test_empty_gt_skips_unscored_predictions(self):
        cfg = RecallConfig()
        report = average_recall([BevBox(0, 0, 4, 2, 0.0, 0)], [], cfg)
        assert report == RecallReport(0, 1, {t: 0 for t in cfg.thresholds})
        assert derived(report) == stored_recalls([report], cfg.thresholds)


class TestDerivedRecalls:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), num_classes=st.integers(1, 3), class_agnostic=st.booleans())
    def test_equal_stored_formulas(self, data, num_classes, class_agnostic):
        cfg = RecallConfig(class_agnostic=class_agnostic)
        scenes = data.draw(
            st.lists(st.tuples(box_lists(num_classes, True), box_lists(num_classes, False)),
                     max_size=4),
            label="scenes",
        )
        reports = [average_recall(preds, gts, cfg) for preds, gts in scenes]
        for report in reports:
            assert derived(report) == stored_recalls([report], cfg.thresholds)
        merged = merge_reports(reports, cfg)
        assert derived(merged) == stored_recalls(reports, cfg.thresholds)
        assert list(merged.per_threshold_recall) == list(cfg.thresholds)


def average_recall_oracle(preds, gts, cfg):
    """Counts by one pass per (class, threshold): the loop ``average_recall``
    replaced with counters, kept as an oracle."""
    thresholds = cfg.thresholds
    if len(gts) == 0:
        return RecallReport(0, len(preds), {t: 0 for t in thresholds})
    gts = BoxColumns.of(gts)
    gt_cls = gts.class_id.tolist()
    classes = sorted(set(gt_cls))
    _, per_threshold_pairs = match_thresholds(
        preds, gts, thresholds, class_consistent=not cfg.class_agnostic
    )
    matched_counts = {}
    class_matched = {c: {} for c in classes}
    for t, pairs in zip(thresholds, per_threshold_pairs):
        matched_counts[t] = len(pairs)
        hit_cls = [gt_cls[j] for j, _i, _s in pairs]
        for c in classes:
            class_matched[c][t] = hit_cls.count(c)
    return RecallReport(
        num_gt=len(gts),
        num_pred=len(preds),
        num_matched=matched_counts,
        per_class_gt={c: gt_cls.count(c) for c in classes},
        per_class_matched=class_matched,
    )


def merge_reports_oracle(reports, cfg):
    """Pooled counts by per-class buckets: the loop ``merge_reports``
    replaced with counters, kept as an oracle."""
    thresholds = cfg.thresholds
    class_gt, class_matched = {}, {}
    for r in reports:
        for c, n in r.per_class_gt.items():
            class_gt[c] = class_gt.get(c, 0) + n
            bucket = class_matched.setdefault(c, {t: 0 for t in thresholds})
            for t in thresholds:
                bucket[t] += r.per_class_matched.get(c, {}).get(t, 0)
    classes = sorted(class_gt)
    return RecallReport(
        num_gt=sum(r.num_gt for r in reports),
        num_pred=sum(r.num_pred for r in reports),
        num_matched={t: sum(r.num_matched.get(t, 0) for r in reports) for t in thresholds},
        per_class_gt={c: class_gt[c] for c in classes},
        per_class_matched={c: class_matched[c] for c in classes},
    )


def classwise_recall_oracle(preds, gts, cfg):
    """One filtered matching per ground-truth class: the loop
    ``classwise_recall`` replaced with one table, kept as an oracle."""
    out = {}
    for c in sorted(set(int(g.class_id) for g in gts)):
        sub_gts = [g for g in gts if g.class_id == c]
        sub_preds = [p for p in preds if int(p.class_id) == c]
        out[c] = average_recall(sub_preds, sub_gts, cfg)
    return out


def ap_center_distance_oracle(preds, gts, threshold, class_consistent=True):
    """TP flags set one pair at a time and the envelope and the area taken
    by Python loops: the body ``ap_center_distance`` replaced with array
    operations, kept as an oracle for inputs with predictions and ground
    truth."""
    scores, (pairs,) = match_thresholds(
        preds, gts, (threshold,), class_consistent=class_consistent
    )
    is_tp = np.zeros(len(preds), dtype=bool)
    for _j, i, _s in pairs:
        is_tp[i] = True
    order = np.argsort(-scores, kind="stable")
    tp = np.cumsum(is_tp[order])
    fp = np.cumsum(~is_tp[order])
    recall = tp / len(gts)
    precision = tp / (tp + fp)
    mrec = np.concatenate(([0.0], recall))
    mpre = np.concatenate(([0.0], precision))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    ap = 0.0
    for i in range(1, len(mrec)):
        if mrec[i] > mrec[i - 1]:
            ap += (mrec[i] - mrec[i - 1]) * mpre[i]
    return ApResult(float(ap), len(gts), len(preds))


@st.composite
def class_band_scenes(draw):
    """Predictions and ground truth on a half-meter lattice, each scene's
    classes drawn from its own band of up to 50 ids, so scenes may share
    classes or not, and predictions may name classes no ground truth has."""
    low = draw(st.integers(0, 50))
    classes = st.integers(low, low + draw(st.integers(0, 49)))
    coord = st.integers(-8, 8).map(lambda v: v * 0.5)

    def boxes(scored):
        return st.lists(
            st.builds(
                lambda cx, cy, c, score: BevBox(cx, cy, 4.0, 2.0, 0.0, c, score=score),
                coord, coord, classes, st.floats(0.0, 1.0) if scored else st.none(),
            ),
            max_size=30,
        )

    return draw(boxes(True)), draw(boxes(False))


class TestCountingOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        scenes=st.lists(class_band_scenes(), max_size=4),
        class_agnostic=st.booleans(),
        thresholds=st.sampled_from([(0.5, 1.0, 2.0, 4.0), (0.1, 0.3, 2.0), (1.0,)]),
    )
    def test_counts_equal_per_class_loops(self, scenes, class_agnostic, thresholds):
        cfg = RecallConfig(thresholds, class_agnostic=class_agnostic)
        reports = []
        for preds, gts in scenes:
            report = average_recall(preds, gts, cfg)
            # repr also pins key order and int counts, which the artifacts show.
            assert repr(report) == repr(average_recall_oracle(preds, gts, cfg))
            reports.append(report)
        assert repr(merge_reports(reports, cfg)) == repr(merge_reports_oracle(reports, cfg))
        for split in range(len(reports) + 1):
            parts = [merge_reports(reports[:split], cfg), merge_reports(reports[split:], cfg)]
            assert repr(merge_reports(parts, cfg)) == repr(merge_reports_oracle(reports, cfg))


class TestClasswiseRecall:
    def test_matches_filtered_overall(self):
        gts = [gt(0, 0, 0), gt(5, 0, 1), gt(9, 0, 1)]
        preds = [pred(0.2, 0, 0, score=0.9), pred(5.4, 0, 1, score=0.8)]
        per_class = classwise_recall(preds, gts)
        assert sorted(per_class) == [0, 1]
        only_ones = average_recall(
            [p for p in preds if p.class_id == 1],
            [g for g in gts if g.class_id == 1],
        )
        assert per_class[1] == only_ones
        assert per_class[1].per_threshold_recall[4.0] == 0.5

    def test_empty_gts(self):
        assert classwise_recall([pred(0, 0)], []) == {}

    @settings(max_examples=200, deadline=None)
    @given(
        scene=class_band_scenes(),
        class_agnostic=st.booleans(),
        thresholds=st.sampled_from([(0.5, 1.0, 2.0, 4.0), (0.1, 0.3, 2.0), (1.0,)]),
        as_columns=st.booleans(),
    )
    def test_equals_per_class_loop(self, scene, class_agnostic, thresholds, as_columns):
        preds, gts = scene
        cfg = RecallConfig(thresholds, class_agnostic=class_agnostic)
        args = (BoxColumns.of(preds), BoxColumns.of(gts)) if as_columns else (preds, gts)

        got = classwise_recall(*args, cfg)

        # repr pins key order, int counts and every report field.
        assert repr(got) == repr(classwise_recall_oracle(preds, gts, cfg))

    def test_empty_inputs_and_classes_without_ground_truth(self):
        cfg = RecallConfig((1.0, 2.0), class_agnostic=True)
        for preds, gts in (([], []), ([], [gt(0, 0, 3)]), ([pred(0, 0, 5)], [gt(0, 0, 3)]),
                           ([pred(0, 0, 3), pred(9, 9, 8, score=0.9)], [gt(0, 0, 3)])):
            assert repr(classwise_recall(preds, gts, cfg)) == repr(
                classwise_recall_oracle(preds, gts, cfg)
            )

    def test_unscored_prediction_of_a_class_without_ground_truth_is_never_matched(self):
        preds = [pred(0, 0, 1), BevBox(0.0, 0.0, 4.0, 2.0, 0.0, 2)]
        gts = [gt(0, 0, 1)]
        assert repr(classwise_recall(preds, gts)) == repr(
            classwise_recall_oracle(preds, gts, RecallConfig())
        )

    def test_thousand_classes_in_linear_time(self):
        # The per-class loop took about 3.7 s on this input: each class filtered
        # every row and ran a matching of its own.
        gts = BoxColumns.of([gt(2.0 * c, 0.0, c) for c in range(1000)])
        preds = BoxColumns.of([pred(2.0 * c + 0.3, 0.0, c, score=0.5) for c in range(0, 1000, 2)])
        start = time.perf_counter()
        per_class = classwise_recall(preds, gts)
        elapsed = time.perf_counter() - start
        assert len(per_class) == 1000 and elapsed < 1.0
        assert per_class[0].num_matched == {0.5: 1, 1.0: 1, 2.0: 1, 4.0: 1}
        assert per_class[1].num_matched == {0.5: 0, 1.0: 0, 2.0: 0, 4.0: 0}


class TestMergeReports:
    def test_pooled_fraction(self):
        cfg = RecallConfig(thresholds=(2.0,))
        a = average_recall([pred(0.1, 0, score=0.9)], [gt(0, 0)], cfg)
        b = average_recall(
            [pred(50.0, 0, score=0.9)], [gt(0, 0), gt(5, 0), gt(10, 0)], cfg
        )
        merged = merge_reports([a, b], cfg)
        assert merged.num_gt == 4
        assert merged.num_matched[2.0] == 1
        assert merged.per_threshold_recall[2.0] == 0.25
        # Pooling weights by ground-truth count; the mean of means is 0.5.
        assert (a.mean_average_recall + b.mean_average_recall) / 2 == 0.5

    def test_associative_and_order_free(self):
        rng = RNG(22)
        cfg = RecallConfig(thresholds=(1.0, 2.0))
        reports = []
        for _ in range(4):
            gts = [
                gt(float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)),
                   int(rng.integers(0, 2)))
                for _ in range(int(rng.integers(1, 6)))
            ]
            preds = [
                pred(float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)),
                     int(rng.integers(0, 2)), score=float(rng.random()))
                for _ in range(int(rng.integers(0, 6)))
            ]
            reports.append(average_recall(preds, gts, cfg))
        flat = merge_reports(reports, cfg)
        nested = merge_reports([merge_reports(reports[:2], cfg), *reports[2:]], cfg)
        reversed_ = merge_reports(list(reversed(reports)), cfg)
        assert flat == nested == reversed_

    def test_merge_nothing(self):
        merged = merge_reports([], RecallConfig(thresholds=(1.0,)))
        assert merged.empty_gt
        assert merged.num_gt == 0


class TestFalseNegatives:
    def test_ladder_fixture_indices(self):
        preds, gts = ladder_fixture()
        fns = false_negative_indices(preds, gts)
        assert fns == {0.5: [1, 2, 3], 1.0: [1, 2, 3], 2.0: [2, 3], 4.0: [3]}

    def test_counts_agree_with_recall_fuzz(self):
        rng = RNG(23)
        cfg = RecallConfig(thresholds=(0.5, 2.0))
        for _ in range(60):
            gts = [
                gt(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
                for _ in range(int(rng.integers(1, 9)))
            ]
            preds = [
                pred(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)),
                     score=float(rng.random()))
                for _ in range(int(rng.integers(0, 9)))
            ]
            report = average_recall(preds, gts, cfg)
            fns = false_negative_indices(preds, gts, cfg)
            for t in cfg.thresholds:
                assert len(fns[t]) == report.num_gt - report.num_matched[t]

    @settings(max_examples=200, deadline=None)
    @given(
        centers=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                                   st.integers(0, 1)), max_size=8),
        pred_centers=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                                        st.integers(0, 1), st.integers(0, 3)), max_size=8),
        class_agnostic=st.booleans(),
    )
    def test_property_matched_counts_agree_with_recall(
        self, centers, pred_centers, class_agnostic
    ):
        # Integer centers and scores produce tied distances and tied scores.
        gts = [gt(float(x), float(y), c) for x, y, c in centers]
        preds = [pred(float(x), float(y), c, score=s / 4) for x, y, c, s in pred_centers]
        cfg = RecallConfig(thresholds=(0.5, 1.5, 3.0), class_agnostic=class_agnostic)
        report = average_recall(preds, gts, cfg)
        fns = false_negative_indices(preds, gts, cfg)
        for t in cfg.thresholds:
            assert len(gts) - len(fns[t]) == report.num_matched[t]
            for c, n in report.per_class_gt.items():
                missed = sum(1 for j in fns[t] if gts[j].class_id == c)
                assert n - missed == report.per_class_matched[c][t]

    def test_no_predictions(self):
        fns = false_negative_indices([], [gt(0, 0), gt(5, 0)], RecallConfig((1.0,)))
        assert fns == {1.0: [0, 1]}


class TestAveragePrecision:
    def test_alternating_ranking_gives_five_ninths(self):
        gts = [gt(0, 0), gt(10, 0), gt(20, 0)]
        preds = [
            pred(0.1, 0.0, score=0.9),   # TP
            pred(50.0, 0.0, score=0.8),  # FP
            pred(10.2, 0.0, score=0.7),  # TP
            pred(60.0, 0.0, score=0.6),  # FP
        ]
        result = ap_center_distance(preds, gts, 2.0)
        assert result.value == pytest.approx(5.0 / 9.0, abs=1e-12)
        assert result.num_gt == 3 and result.num_pred == 4
        assert not result.no_gt and not result.no_predictions

    def test_perfect_detector(self):
        gts = [gt(0, 0), gt(10, 0)]
        preds = [pred(0.1, 0, score=0.9), pred(10.1, 0, score=0.8)]
        assert ap_center_distance(preds, gts, 2.0).value == 1.0

    def test_all_false_positives(self):
        gts = [gt(0, 0)]
        preds = [pred(50, 0, score=0.9), pred(60, 0, score=0.8)]
        assert ap_center_distance(preds, gts, 2.0).value == 0.0

    def test_empty_cases_flagged(self):
        no_gt = ap_center_distance([pred(0, 0)], [], 2.0)
        assert math.isnan(no_gt.value) and no_gt.no_gt
        no_pred = ap_center_distance([], [gt(0, 0)], 2.0)
        assert no_pred.value == 0.0 and no_pred.no_predictions

    def test_invariant_to_monotone_score_transforms(self):
        rng = RNG(24)
        for _ in range(40):
            gts = [
                gt(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
                for _ in range(int(rng.integers(1, 7)))
            ]
            scores = rng.permutation(np.linspace(0.1, 0.9, int(rng.integers(1, 9))))
            preds = [
                pred(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)),
                     score=float(s))
                for s in scores
            ]
            base = ap_center_distance(preds, gts, 2.0).value
            squeezed = [
                pred(p.cx, p.cy, score=0.05 + 0.5 * p.score) for p in preds
            ]
            assert ap_center_distance(squeezed, gts, 2.0).value == pytest.approx(
                base, abs=1e-12
            )

    def test_ap_between_zero_and_one_fuzz(self):
        rng = RNG(25)
        for _ in range(60):
            gts = [
                gt(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
                for _ in range(int(rng.integers(1, 8)))
            ]
            preds = [
                pred(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)),
                     score=float(rng.random()))
                for _ in range(int(rng.integers(1, 8)))
            ]
            value = ap_center_distance(preds, gts, 2.0).value
            assert 0.0 <= value <= 1.0

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            ap_center_distance([pred(0, 0)], [gt(0, 0)], 0.0)
        for bad in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError, match="distance threshold must be finite and positive"):
                ap_center_distance([pred(0, 0)], [gt(0, 0)], bad)

    @settings(max_examples=150, deadline=None)
    @given(
        scene=class_band_scenes(),
        scores=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=30, max_size=30),
        threshold=st.sampled_from([0.1, 0.5, 1.0, 4.0, 100.0]),
        class_consistent=st.booleans(),
    )
    def test_equals_pair_and_envelope_loops(self, scene, scores, threshold, class_consistent):
        # Few distinct scores tie often, and unmatched predictions between
        # matched ones leave zero recall steps.
        preds, gts = scene
        preds = [BevBox(p.cx, p.cy, 4.0, 2.0, 0.0, p.class_id, s) for p, s in zip(preds, scores)]
        assume(preds and gts)

        got = ap_center_distance(preds, gts, threshold, class_consistent=class_consistent)

        assert repr(got) == repr(
            ap_center_distance_oracle(preds, gts, threshold, class_consistent)
        )


class TestReportSerialization:
    def test_rows_layout(self):
        preds, gts = ladder_fixture()
        report = average_recall(preds, gts)
        rows = recall_report_rows(report, scope="probe")
        assert len(rows) == 4 + 1 * 4
        assert [r["class"] for r in rows[:4]] == ["*"] * 4
        assert rows[0] == {
            "scope": "probe",
            "class": "*",
            "threshold": "0.5",
            "recall": "0.25",
            "num_gt": 4,
            "num_matched": 1,
        }
        assert {r["class"] for r in rows[4:]} == {0}

    def test_csv_roundtrip_floats(self, tmp_path):
        preds, gts = ladder_fixture()
        rows = recall_report_rows(average_recall(preds, gts))
        path = tmp_path / "recall.csv"
        write_recall_csv(path, rows)
        text = path.read_text()
        assert text.splitlines()[0] == "scope,class,threshold,recall,num_gt,num_matched"
        assert "\r" not in text
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert [float(r["recall"]) for r in back[:4]] == [0.25, 0.25, 0.5, 0.75]

    def test_json_report(self):
        preds, gts = ladder_fixture()
        report = average_recall(preds, gts)
        d = recall_report_to_dict(report)
        assert d["per_threshold_recall"] == {
            "0.5": 0.25, "1.0": 0.25, "2.0": 0.5, "4.0": 0.75
        }
        assert d["mean_average_recall"] == 0.4375

    def test_thousand_class_report_serializes_in_linear_time(self):
        # Reading per_class_recall, a property, once per (class, threshold)
        # makes this quadratic in the class count: several seconds.
        thresholds = (0.5, 1.0, 2.0, 4.0)
        report = RecallReport(
            num_gt=2000, num_pred=1000, num_matched=dict.fromkeys(thresholds, 1000),
            per_class_gt=dict.fromkeys(range(1000), 2),
            per_class_matched={c: dict.fromkeys(thresholds, c % 3) for c in range(1000)},
        )
        start = time.perf_counter()
        d = recall_report_to_dict(report)
        assert time.perf_counter() - start < 2.0
        assert len(d["per_class_recall"]) == 1000
        assert d["per_class_recall"]["998"] == dict.fromkeys(["0.5", "1.0", "2.0", "4.0"], 1.0)

    def test_report_is_plain_dataclass(self):
        preds, gts = ladder_fixture()
        a = average_recall(preds, gts)
        b = average_recall(preds, gts)
        assert a == b and isinstance(a, RecallReport)
        assert isinstance(ap_center_distance(preds, gts, 2.0), ApResult)
