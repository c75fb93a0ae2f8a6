import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevprobe import assignment, geometry
from bevprobe.assignment import (
    AssignmentConfig,
    MatchConfig,
    MatchMetric,
    StageAssignment,
    assign_with_gate,
    classify_stage,
    gated_cost_matrix,
    greedy_match_matrix,
    hard_instance_targets,
    hungarian_assign,
    match_thresholds,
    prediction_columns,
    sigma_matrix,
)
from bevprobe.geometry import BevBox, BoxColumns, rotated_iou_bev
from bevprobe.hip import Candidate, CandidateColumns

RNG = np.random.default_rng


def gt(cx, cy, class_id=0, length=4.0, width=2.0, yaw=0.0):
    return BevBox(cx, cy, length, width, yaw, class_id)


def pred(cx, cy, class_id=0, score=0.5, **kw):
    return BevBox(cx, cy, 4.0, 2.0, 0.0, class_id, score=score, **kw)


def brute_force_assignment(cost):
    """Oracle: minimum-cost matching by exhaustive permutation search."""
    cost = np.asarray(cost, dtype=np.float64)
    r, c = cost.shape
    transposed = r > c
    if transposed:
        cost = cost.T
        r, c = c, r
    best_perm = None
    best_cost = math.inf
    for perm in itertools.permutations(range(c), r):
        total = sum(cost[i, perm[i]] for i in range(r))
        if total < best_cost:
            best_cost = total
            best_perm = perm
    pairs = [(i, best_perm[i]) for i in range(r)]
    if transposed:
        pairs = sorted((j, i) for i, j in pairs)
    return best_cost, pairs


def naive_greedy(sigma, scores, pred_cls, gt_cls, eta, larger_is_better, class_consistent=True):
    """Oracle: score-ordered greedy matching, written as plain loops."""
    n_pred, n_gt = sigma.shape
    order = sorted(range(n_pred), key=lambda i: (-scores[i], i))
    taken = set()
    pairs = []
    for i in order:
        best_j, best_v = None, None
        for j in range(n_gt):
            if j in taken or (class_consistent and gt_cls[j] != pred_cls[i]):
                continue
            v = sigma[i, j]
            ok = v > eta if larger_is_better else v < eta
            if not ok:
                continue
            better = best_j is None or (v > best_v if larger_is_better else v < best_v)
            if better:
                best_j, best_v = j, v
        if best_j is not None:
            pairs.append((best_j, i, float(best_v)))
            taken.add(best_j)
    return pairs


def iou_sigma_oracle(preds, gts):
    """The pair loop of the IoU ``sigma_matrix``, which read the ground
    truth once per prediction, kept as an oracle."""
    out = np.zeros((len(preds), len(gts)))
    for i, p in enumerate(preds):
        if not isinstance(p, BevBox):
            raise ValueError("IoU matching requires box predictions")
        for j, g in enumerate(gts):
            out[i, j] = rotated_iou_bev(p, g)
    return out


def classify_subset_oracle(candidates, gts, cfg, remaining, stage=0):
    """``classify_stage`` with ``remaining`` as it read the subset into a
    row list, kept as an oracle."""
    claimable = sorted(set(int(i) for i in remaining))
    sub_gts = [gts[j] for j in claimable]
    _, (pairs,) = match_thresholds(candidates, sub_gts, (cfg.eta,), cfg.metric)
    matched = tuple((claimable[j], i, s) for j, i, s in pairs)
    tp = frozenset(p[0] for p in matched)
    return StageAssignment(stage, matched, tp, frozenset(claimable) - tp)


@st.composite
def overlapping_boxes(draw, scored, max_size=7):
    """Boxes on a half-meter lattice with few sizes and headings, so IoU
    and distance ties are common."""
    coord = st.integers(-4, 4).map(lambda v: v * 0.5)
    yaw = st.one_of(st.sampled_from([0.0, math.pi / 4, math.pi / 2, math.pi]),
                    st.floats(-math.pi, math.pi))
    score = st.sampled_from([0.25, 0.5, 1.0]) if scored else st.none()
    return draw(st.lists(
        st.builds(BevBox, coord, coord, st.sampled_from([1.0, 2.0, 4.0]),
                  st.sampled_from([1.0, 2.0]), yaw, st.integers(0, 2), score),
        max_size=max_size,
    ))


class TestConfigs:
    def test_distance_threshold_positive(self):
        MatchConfig(MatchMetric.CENTER_DISTANCE, 2.0)
        with pytest.raises(ValueError):
            MatchConfig(MatchMetric.CENTER_DISTANCE, 0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="distance threshold must be finite and positive"):
                MatchConfig(MatchMetric.CENTER_DISTANCE, bad)

    def test_iou_threshold_open_interval(self):
        MatchConfig(MatchMetric.ROTATED_IOU, 0.5)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                MatchConfig(MatchMetric.ROTATED_IOU, bad)

    def test_gate_positive(self):
        assert AssignmentConfig().gate_distance == 7.0
        with pytest.raises(ValueError):
            AssignmentConfig(gate_distance=0.0)


class TestPredictionColumns:
    def test_candidate_center_is_world(self):
        c = Candidate(3, 4, 0, 0.9, 0, 1.5, 2.5)
        cols = prediction_columns([c])
        assert isinstance(cols, CandidateColumns) and cols.rows() == (c,)
        assert sigma_matrix([c], [gt(1.5, 2.5)], MatchMetric.CENTER_DISTANCE)[0, 0] == 0.0

    def test_box_center(self):
        cols = prediction_columns([pred(7.0, -2.0)])
        assert isinstance(cols, BoxColumns) and list(cols) == [pred(7.0, -2.0)]
        assert prediction_columns(cols) is cols
        assert sigma_matrix(cols, [gt(7.0, -2.0)], MatchMetric.CENTER_DISTANCE)[0, 0] == 0.0

    def test_mixed_rows_rejected(self):
        c = Candidate(3, 4, 0, 0.9, 0, 1.5, 2.5)
        for preds in ([c, pred(7.0, -2.0)], [pred(7.0, -2.0), c]):
            with pytest.raises(ValueError, match="must all be Candidates or all BevBoxes"):
                prediction_columns(preds)

    def test_unscored_prediction_rejected(self):
        unscored = BevBox(0, 0, 4, 2, 0.0, 0)
        for preds in ([unscored], BoxColumns.of([unscored, pred(1.0, 0.0)])):
            with pytest.raises(ValueError, match="scored"):
                match_thresholds(preds, [gt(0, 0)], (1.0,))


class TestClassifyStage:
    def test_clean_hits(self):
        gts = [gt(0, 0), gt(10, 0)]
        preds = [pred(0.5, 0.0, score=0.9), pred(10.3, 0.4, score=0.8)]
        out = classify_stage(preds, gts)
        assert out.tp_gt == frozenset({0, 1})
        assert out.fn_gt == frozenset()
        assert [(g, p) for g, p, _ in out.matched_pairs] == [(0, 0), (1, 1)]

    def test_distance_threshold_strict(self):
        gts = [gt(0, 0)]
        # Exactly at eta fails (strict less-than), just inside passes.
        at = classify_stage([pred(2.0, 0.0)], gts, MatchConfig(eta=2.0))
        inside = classify_stage([pred(1.999, 0.0)], gts, MatchConfig(eta=2.0))
        assert at.tp_gt == frozenset()
        assert inside.tp_gt == frozenset({0})

    def test_class_consistency(self):
        gts = [gt(0, 0, class_id=1)]
        out = classify_stage([pred(0.1, 0.0, class_id=0, score=0.99)], gts)
        assert out.tp_gt == frozenset()
        assert out.fn_gt == frozenset({0})

    def test_higher_score_claims_contested_gt(self):
        gts = [gt(0, 0)]
        preds = [pred(0.5, 0.0, score=0.3), pred(1.5, 0.0, score=0.9)]
        out = classify_stage(preds, gts)
        # The far-but-confident prediction is visited first and wins.
        assert out.matched_pairs == ((0, 1, pytest.approx(1.5)),)

    def test_equal_scores_visit_lower_index_first(self):
        gts = [gt(0, 0)]
        preds = [pred(1.0, 0.0, score=0.5), pred(0.1, 0.0, score=0.5)]
        out = classify_stage(preds, gts)
        assert out.matched_pairs[0][1] == 0

    def test_one_to_one(self):
        gts = [gt(0, 0)]
        preds = [pred(0.2, 0.0, score=0.9), pred(-0.2, 0.0, score=0.8)]
        out = classify_stage(preds, gts)
        assert len(out.matched_pairs) == 1
        assert out.tp_gt == frozenset({0})

    def test_equidistant_tie_takes_lowest_gt_index(self):
        gts = [gt(1.0, 0.0), gt(-1.0, 0.0)]
        out = classify_stage([pred(0.0, 0.0, score=0.9)], gts)
        assert out.matched_pairs[0][0] == 0

    def test_prediction_prefers_nearest_gt(self):
        gts = [gt(0, 0), gt(1.2, 0.0)]
        out = classify_stage([pred(1.0, 0.0, score=0.9)], gts)
        assert out.matched_pairs[0][0] == 1

    def test_remaining_restricts_claimable_set(self):
        gts = [gt(0, 0), gt(10, 0)]
        preds = [pred(0.1, 0.0, score=0.9), pred(10.1, 0.0, score=0.8)]
        out = classify_stage(preds, gts, remaining=[1], stage=2)
        assert out.stage == 2
        assert out.tp_gt == frozenset({1})
        assert out.fn_gt == frozenset()
        # Indices refer to the full ground-truth list, not the subset.
        assert out.matched_pairs[0][0] == 1

    def test_remaining_out_of_range(self):
        with pytest.raises(ValueError):
            classify_stage([], [gt(0, 0)], remaining=[1])

    @pytest.mark.parametrize(
        "remaining",
        [[True, False], [False], [1.7], [0, 1.0], [np.bool_(True)], [None], ["0"],
         np.array([True, False])],
    )
    def test_remaining_entry_that_is_no_integer_rejected(self, remaining):
        # int() would read True as ground truth 1 and truncate 1.7 to 1.
        gts = [gt(0, 0), gt(10, 0)]
        bad = next(i for i in remaining if type(i) not in (int, np.int64))
        with pytest.raises(ValueError, match=re.escape(f"remaining entry {bad!r}")):
            classify_stage([pred(10.0, 0.0)], gts, remaining=remaining)

    def test_remaining_accepts_numpy_integers(self):
        gts = [gt(0, 0), gt(10, 0), gt(20, 0)]
        preds = [pred(0.1, 0.0, score=0.9), pred(10.1, 0.0, score=0.8)]
        for remaining in ([np.int64(1), np.int32(2)], np.array([2, 1]), (np.uint8(1), 2)):
            out = classify_stage(preds, gts, remaining=remaining)
            assert out.tp_gt == frozenset({1}) and out.fn_gt == frozenset({2})
            assert all(type(v) is int for pair in out.matched_pairs for v in pair[:2])

    @settings(max_examples=150, deadline=None)
    @given(
        preds=overlapping_boxes(scored=True),
        gts=overlapping_boxes(scored=False),
        data=st.data(),
        metric=st.sampled_from(list(MatchMetric)),
        as_columns=st.booleans(),
    )
    def test_remaining_subset_equals_row_list(self, preds, gts, data, metric, as_columns):
        index = st.integers(0, max(len(gts) - 1, 0))
        remaining = data.draw(st.lists(index | index.map(np.int64), max_size=9 if gts else 0))
        cfg = MatchConfig(metric, 0.3 if metric is MatchMetric.ROTATED_IOU else 1.0)
        args = (BoxColumns.of(preds), BoxColumns.of(gts)) if as_columns else (preds, gts)

        got = classify_stage(*args, cfg, remaining=remaining, stage=2)

        assert repr(got) == repr(classify_subset_oracle(preds, gts, cfg, remaining, stage=2))

    def test_candidates_match_by_world_center(self):
        gts = [gt(5.0, 5.0)]
        c = Candidate(0, 0, 0, 0.9, 0, 5.4, 5.3)
        out = classify_stage([c], gts)
        assert out.tp_gt == frozenset({0})
        assert out.matched_pairs[0][2] == pytest.approx(math.hypot(0.4, 0.3))

    def test_iou_metric(self):
        cfg = MatchConfig(MatchMetric.ROTATED_IOU, eta=0.3)
        gts = [gt(0, 0, length=4.0, width=2.0)]
        hit = classify_stage([pred(0.5, 0.0, score=0.9)], gts, cfg)
        miss = classify_stage([pred(3.5, 0.0, score=0.9)], gts, cfg)
        assert hit.tp_gt == frozenset({0})
        assert miss.tp_gt == frozenset()

    def test_iou_metric_rejects_point_candidates(self):
        cfg = MatchConfig(MatchMetric.ROTATED_IOU, eta=0.3)
        c = Candidate(0, 0, 0, 0.9, 0, 0.0, 0.0)
        with pytest.raises(ValueError, match="box predictions"):
            classify_stage([c], [gt(0, 0)], cfg)

    def test_empty_inputs(self):
        out = classify_stage([], [gt(0, 0)])
        assert out.fn_gt == frozenset({0})
        out = classify_stage([pred(0, 0)], [])
        assert out.tp_gt == frozenset() and out.fn_gt == frozenset()


class TestGreedyAgainstOracle:
    def test_fuzz_distance_metric(self):
        rng = RNG(10)
        for _ in range(200):
            n_pred, n_gt = int(rng.integers(0, 8)), int(rng.integers(0, 8))
            sigma = rng.uniform(0, 5, size=(n_pred, n_gt))
            scores = rng.random(n_pred)
            pred_cls = rng.integers(0, 3, size=n_pred)
            gt_cls = rng.integers(0, 3, size=n_gt)
            got = greedy_match_matrix(
                sigma, scores, pred_cls, gt_cls, eta=2.5, larger_is_better=False
            )
            want = naive_greedy(sigma, scores, pred_cls, gt_cls, 2.5, False)
            assert got == [
                (j, i, pytest.approx(v, abs=0.0)) for j, i, v in want
            ]

    def test_fuzz_iou_metric_direction(self):
        rng = RNG(11)
        for _ in range(100):
            n_pred, n_gt = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            sigma = rng.random((n_pred, n_gt))
            scores = rng.random(n_pred)
            cls = np.zeros(n_pred, dtype=np.int64), np.zeros(n_gt, dtype=np.int64)
            got = greedy_match_matrix(
                sigma, scores, cls[0], cls[1], eta=0.4, larger_is_better=True
            )
            want = naive_greedy(sigma, scores, cls[0], cls[1], 0.4, True)
            assert got == want

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n_pred=st.integers(0, 7),
        n_gt=st.integers(0, 7),
        larger_is_better=st.booleans(),
        class_consistent=st.booleans(),
    )
    def test_property_equals_oracle_with_ties(
        self, data, n_pred, n_gt, larger_is_better, class_consistent
    ):
        # Integer-valued sigmas and scores make sigma and score ties common.
        small = st.integers(0, 4)
        sigma = np.array(
            data.draw(st.lists(st.lists(small, min_size=n_gt, max_size=n_gt),
                               min_size=n_pred, max_size=n_pred)),
            dtype=np.float64,
        ).reshape(n_pred, n_gt)
        scores = np.array(data.draw(st.lists(small, min_size=n_pred, max_size=n_pred)),
                          dtype=np.float64)
        pred_cls = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n_pred,
                                               max_size=n_pred)), dtype=np.int64)
        gt_cls = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n_gt,
                                             max_size=n_gt)), dtype=np.int64)
        eta = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.5]))
        got = greedy_match_matrix(
            sigma, scores, pred_cls, gt_cls, eta=eta,
            larger_is_better=larger_is_better, class_consistent=class_consistent,
        )
        want = naive_greedy(
            sigma, scores, pred_cls, gt_cls, eta, larger_is_better, class_consistent
        )
        assert got == want

    def test_class_agnostic_flag(self):
        sigma = np.array([[0.5]])
        got = greedy_match_matrix(
            sigma,
            np.array([1.0]),
            np.array([0]),
            np.array([1]),
            eta=2.0,
            larger_is_better=False,
            class_consistent=False,
        )
        assert got == [(0, 0, 0.5)]


class TestHardInstanceTargets:
    def test_union_across_stages(self):
        gts = [gt(i * 10.0, 0.0) for i in range(5)]
        s0 = classify_stage([pred(0.1, 0.0, score=0.9)], gts, stage=0)
        s1 = classify_stage(
            [pred(20.2, 0.0, score=0.8)], gts, remaining=sorted(s0.fn_gt), stage=1
        )
        hard = hard_instance_targets(gts, [s0, s1])
        assert s0.tp_gt == frozenset({0})
        assert s1.tp_gt == frozenset({2})
        assert hard == frozenset({1, 3, 4})

    def test_no_stages(self):
        gts = [gt(0, 0), gt(5, 5)]
        assert hard_instance_targets(gts, []) == frozenset({0, 1})


class TestHungarian:
    def test_hand_case(self):
        cost = np.array([[1.0, 2.0], [1.0, 5.0]])
        # Row-greedy would take (0,0),(1,1) for 6; the optimum is 3.
        assert hungarian_assign(cost) == [(0, 1), (1, 0)]

    def test_matches_permutation_search(self):
        rng = RNG(12)
        for _ in range(120):
            r, c = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            cost = rng.uniform(0, 10, size=(r, c))
            pairs = hungarian_assign(cost)
            total = sum(cost[i, j] for i, j in pairs)
            best_cost, best_pairs = brute_force_assignment(cost)
            assert total == pytest.approx(best_cost, abs=1e-12)
            assert pairs == best_pairs

    def test_rectangular_cardinality(self):
        cost = RNG(13).random((3, 7))
        pairs = hungarian_assign(cost)
        assert len(pairs) == 3
        assert len({j for _, j in pairs}) == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="2D"):
            hungarian_assign(np.zeros(4))
        with pytest.raises(ValueError, match="finite"):
            hungarian_assign(np.array([[np.nan, 1.0], [1.0, 2.0]]))
        assert hungarian_assign(np.zeros((0, 3))) == []


class TestGatedCosts:
    def test_default_base_is_center_distance(self):
        preds = [pred(0, 0), pred(3, 4)]
        gts = [gt(0, 0)]
        costs, gated = gated_cost_matrix(preds, gts, AssignmentConfig(7.0))
        assert costs[0, 0] == pytest.approx(0.0)
        assert costs[1, 0] == pytest.approx(5.0)
        assert not gated.any()

    def test_sentinel_floor_for_small_costs(self):
        preds = [pred(0, 0), pred(20, 0)]
        gts = [gt(0, 0)]
        base = np.zeros((2, 1))
        costs, gated = gated_cost_matrix(preds, gts, AssignmentConfig(7.0), base)
        assert gated.tolist() == [[False], [True]]
        assert costs[1, 0] == 1e6

    def test_sentinel_scales_with_base_magnitude(self):
        preds = [pred(0, 0), pred(20, 0)]
        gts = [gt(0, 0)]
        base = np.array([[-3.0], [0.5]])
        costs, _ = gated_cost_matrix(preds, gts, AssignmentConfig(7.0), base)
        assert costs[1, 0] == 3e6
        assert costs[0, 0] == -3.0

    def test_base_cost_validation(self):
        preds, gts = [pred(0, 0)], [gt(0, 0)]
        with pytest.raises(ValueError, match="shape"):
            gated_cost_matrix(preds, gts, base_cost=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="finite"):
            gated_cost_matrix(preds, gts, base_cost=np.array([[np.inf]]))

    def test_input_matrix_not_mutated(self):
        preds = [pred(0, 0), pred(20, 0)]
        gts = [gt(0, 0)]
        base = np.zeros((2, 1))
        gated_cost_matrix(preds, gts, AssignmentConfig(7.0), base)
        assert (base == 0.0).all()


class TestAssignWithGate:
    def test_drops_out_of_gate_pairs(self):
        preds = [pred(0.5, 0.0), pred(30.0, 0.0)]
        gts = [gt(0, 0), gt(31.0, 0.0), gt(100.0, 0.0)]
        out = assign_with_gate(preds, gts, AssignmentConfig(7.0))
        assert [(p, g) for p, g, _ in out] == [(0, 0), (1, 1)]
        for _, _, d in out:
            assert d <= 7.0

    def test_prefers_global_optimum_over_row_greedy(self):
        # Pred 0 is nearest to gt 0, but taking it starves pred 1.
        preds = [pred(0.0, 0.0), pred(1.0, 0.0)]
        gts = [gt(1.5, 0.0), gt(-2.0, 0.0)]
        out = assign_with_gate(preds, gts, AssignmentConfig(7.0))
        assert sorted((p, g) for p, g, _ in out) == [(0, 1), (1, 0)]

    def test_gate_beats_cardinality_when_infeasible(self):
        preds = [pred(0.0, 0.0)]
        gts = [gt(50.0, 0.0)]
        out = assign_with_gate(preds, gts, AssignmentConfig(7.0))
        assert out == []

    def test_matches_permutation_oracle_on_gated_costs(self):
        rng = RNG(14)
        cfg = AssignmentConfig(7.0)
        for _ in range(80):
            n_pred, n_gt = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            preds = [
                pred(float(rng.uniform(-12, 12)), float(rng.uniform(-12, 12)))
                for _ in range(n_pred)
            ]
            gts = [
                gt(float(rng.uniform(-12, 12)), float(rng.uniform(-12, 12)))
                for _ in range(n_gt)
            ]
            costs, gated = gated_cost_matrix(preds, gts, cfg)
            best_cost, best_pairs = brute_force_assignment(costs)
            out = assign_with_gate(preds, gts, cfg)
            want = [(i, j) for i, j in best_pairs if not gated[i, j]]
            assert [(p, g) for p, g, _ in out] == want
            total = sum(costs[i, j] for i, j in hungarian_assign(costs))
            assert total == pytest.approx(best_cost, abs=1e-9)

    def test_builds_one_distance_matrix(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return sigma_matrix(*args)

        monkeypatch.setattr(assignment, "sigma_matrix", counted)
        preds = [pred(0.5, 0.0), pred(30.0, 0.0)]
        gts = [gt(0, 0), gt(31.0, 0.0), gt(100.0, 0.0)]
        out = assign_with_gate(preds, gts, AssignmentConfig(7.0))
        assert [(p, g) for p, g, _ in out] == [(0, 0), (1, 1)]
        assert len(calls) == 1


class TestSigmaMatrix:
    def test_distance_matrix_values(self):
        preds = [pred(0, 0), pred(3, 4)]
        gts = [gt(0, 0), gt(-3, -4)]
        sig = sigma_matrix(preds, gts, MatchMetric.CENTER_DISTANCE)
        np.testing.assert_allclose(sig, [[0.0, 5.0], [5.0, 10.0]], atol=1e-12)

    def test_iou_matrix_identity(self):
        b = gt(1.0, 2.0, length=4.0, width=2.0, yaw=0.3)
        p = BevBox(1.0, 2.0, 4.0, 2.0, 0.3, 0, score=0.5)
        sig = sigma_matrix([p], [b], MatchMetric.ROTATED_IOU)
        assert sig[0, 0] == 1.0

    def test_empty_shapes(self):
        assert sigma_matrix([], [gt(0, 0)], MatchMetric.CENTER_DISTANCE).shape == (0, 1)
        assert sigma_matrix([pred(0, 0)], [], MatchMetric.CENTER_DISTANCE).shape == (1, 0)
        for preds, gts in (([], [gt(0, 0)]), ([pred(0, 0)], []), ([], [])):
            sig = sigma_matrix(preds, gts, MatchMetric.ROTATED_IOU)
            assert sig.shape == (len(preds), len(gts)) and sig.dtype == np.float64

    @settings(max_examples=200, deadline=None)
    @given(
        preds=overlapping_boxes(scored=True),
        gts=overlapping_boxes(scored=False),
        pred_columns=st.booleans(),
        gt_columns=st.booleans(),
    )
    def test_iou_equals_pair_loop(self, preds, gts, pred_columns, gt_columns):
        want = iou_sigma_oracle(preds, gts)

        got = sigma_matrix(
            BoxColumns.of(preds) if pred_columns else preds,
            BoxColumns.of(gts) if gt_columns else gts,
            MatchMetric.ROTATED_IOU,
        )

        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_iou_equals_per_pair_rotated_iou_on_free_boxes(self, data):
        finite = st.floats(-20.0, 20.0, allow_nan=False)
        extent = st.floats(0.1, 12.0)
        boxes = st.lists(st.builds(BevBox, finite, finite, extent, extent,
                                   st.floats(-math.pi, math.pi), st.integers(0, 2)), max_size=6)
        preds, gts = data.draw(boxes), data.draw(boxes)

        got = sigma_matrix(preds, gts, MatchMetric.ROTATED_IOU)

        want = np.array([[rotated_iou_bev(p, g) for g in gts] for p in preds], dtype=np.float64)
        assert got.tobytes() == want.reshape(len(preds), len(gts)).tobytes()

    def test_iou_computes_each_box_corners_once(self, monkeypatch):
        calls = []
        box_corners = geometry.box_corners

        def counted(*args):
            calls.append(args)
            return box_corners(*args)

        monkeypatch.setattr(geometry, "box_corners", counted)
        rng = RNG(8)
        preds, gts = ([BevBox(*rng.uniform(-10, 10, 2), 4.0, 2.0, float(rng.uniform(-3, 3)), 0,
                              score=0.5) for _ in range(50)] for _ in range(2))
        sig = sigma_matrix(preds, gts, MatchMetric.ROTATED_IOU)
        assert sig.shape == (50, 50) and (sig > 0).any()
        assert len(calls) <= 100

    def test_iou_rejects_candidates_as_the_pair_loop_did(self):
        c = Candidate(0, 0, 0, 0.9, 0, 0.0, 0.0)
        for preds in ([c], CandidateColumns.of([c]), [pred(0, 0), c]):
            with pytest.raises(ValueError, match="IoU matching requires box predictions"):
                iou_sigma_oracle(preds, [gt(0, 0)])
            with pytest.raises(ValueError, match="IoU matching requires box predictions"):
                sigma_matrix(preds, [gt(0, 0)], MatchMetric.ROTATED_IOU)
