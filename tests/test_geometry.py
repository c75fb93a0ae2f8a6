import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bevprobe.bev_grid import BevGridSpec, Heatmap
from bevprobe.geometry import (
    BevBox,
    BoxColumns,
    BoxPoolConfig,
    DeformSamplingConfig,
    bilinear_sample,
    box_pool,
    box_corners,
    box_pool_points,
    center_distance,
    clip_polygon,
    deform_sample,
    normalize_yaw,
    polygon_area,
    rotated_iou_bev,
)

RNG = np.random.default_rng


def random_box(rng, span=10.0, max_side=6.0, class_id=0):
    return BevBox(
        cx=float(rng.uniform(-span, span)),
        cy=float(rng.uniform(-span, span)),
        length=float(rng.uniform(0.5, max_side)),
        width=float(rng.uniform(0.5, max_side)),
        yaw=float(rng.uniform(-4.0, 4.0)),
        class_id=class_id,
    )


def raster_iou(a: BevBox, b: BevBox, cells: int = 400) -> float:
    """Independent IoU oracle: count sample points inside each footprint."""
    ca, cb = a.corners(), b.corners()
    all_pts = np.vstack([ca, cb])
    lo = all_pts.min(axis=0) - 0.01
    hi = all_pts.max(axis=0) + 0.01
    xs = np.linspace(lo[0], hi[0], cells)
    ys = np.linspace(lo[1], hi[1], cells)
    gx, gy = np.meshgrid(xs, ys)

    def inside(corners):
        mask = np.ones_like(gx, dtype=bool)
        n = len(corners)
        for i in range(n):
            x1, y1 = corners[i]
            x2, y2 = corners[(i + 1) % n]
            mask &= (x2 - x1) * (gy - y1) - (y2 - y1) * (gx - x1) >= 0.0
        return mask

    in_a = inside(ca)
    in_b = inside(cb)
    inter = np.count_nonzero(in_a & in_b)
    union = np.count_nonzero(in_a | in_b)
    return inter / union if union else 0.0


class TestNormalizeYaw:
    def test_identity_inside_range(self):
        for y in (-3.0, -0.5, 0.0, 1.0, math.pi):
            assert normalize_yaw(y) == pytest.approx(y, abs=0)

    def test_wraps_into_half_open_interval(self):
        rng = RNG(0)
        for _ in range(200):
            y = float(rng.uniform(-30, 30))
            w = normalize_yaw(y)
            assert -math.pi < w <= math.pi
            assert math.isclose(math.sin(w), math.sin(y), abs_tol=1e-9)
            assert math.isclose(math.cos(w), math.cos(y), abs_tol=1e-9)

    def test_negative_pi_maps_to_pi(self):
        assert normalize_yaw(-math.pi) == pytest.approx(math.pi)


class TestBevBox:
    def test_rejects_nonpositive_footprint(self):
        with pytest.raises(ValueError):
            BevBox(0, 0, 0.0, 1.0)
        with pytest.raises(ValueError):
            BevBox(0, 0, 1.0, -2.0)

    def test_rejects_out_of_range_score(self):
        with pytest.raises(ValueError):
            BevBox(0, 0, 1, 1, score=1.5)
        BevBox(0, 0, 1, 1, score=0.0)
        BevBox(0, 0, 1, 1, score=1.0)

    def test_yaw_normalized_at_construction(self):
        box = BevBox(0, 0, 1, 1, yaw=3 * math.pi)
        assert -math.pi < box.yaw <= math.pi

    def test_corners_ccw_and_area(self):
        rng = RNG(1)
        for _ in range(50):
            box = random_box(rng)
            corners = box.corners()
            signed = polygon_area([tuple(p) for p in corners])
            assert signed > 0.0
            assert signed == pytest.approx(box.area, rel=1e-12)

    def test_corners_axis_aligned(self):
        box = BevBox(1.0, 2.0, 4.0, 2.0, 0.0)
        expect = {(3.0, 3.0), (-1.0, 3.0), (-1.0, 1.0), (3.0, 1.0)}
        got = {(round(x, 9), round(y, 9)) for x, y in box.corners()}
        assert got == expect


yaw_values = st.one_of(
    st.sampled_from([math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 2 * math.pi, -0.0, 1e300]),
    st.floats(-1e6, 1e6),
)


BAD_VALUES = {
    "cx": [math.nan, math.inf, -math.inf],
    "cy": [math.nan, math.inf, -math.inf],
    "length": [0.0, -0.0, -1.5, math.nan, math.inf, -math.inf],
    "width": [0.0, -0.0, -2.5, math.nan, math.inf, -math.inf],
    "yaw": [math.nan, math.inf, -math.inf],
    "score": [1.5, -0.1, 1.0000000000000002, -5e-324, math.inf, -math.inf],
}
FLOAT_FIELDS = ("cx", "cy", "length", "width", "yaw")


def box_of_row(columns, i):
    """The ``BevBox`` of row ``i`` of raw columns, a NaN score read as none."""
    score = columns["score"][i] if columns["score"] is not None else math.nan
    return BevBox(*(columns[f][i] for f in FLOAT_FIELDS), columns["class_id"][i],
                  None if score != score else score)


def three_pass_box_rules(columns):
    """BoxColumns' checks as they stood with one pass per rule: the first
    row with a non-positive footprint, else the first with a score outside
    [0, 1], else the first with a non-finite field, whose BevBox raises."""
    length, width = np.asarray(columns["length"]), np.asarray(columns["width"])
    s = np.full(len(length), np.nan) if columns["score"] is None else np.asarray(columns["score"])
    sized = (length > 0.0) & (width > 0.0)
    if not sized.all():
        i = int(np.argmin(sized))
        raise ValueError(f"box footprint must be positive, got {length[i]} x {width[i]}")
    scored = np.isnan(s) | ((0.0 <= s) & (s <= 1.0))
    if not scored.all():
        raise ValueError(f"score must lie in [0, 1], got {s[int(np.argmin(scored))]}")
    finite = np.isfinite([columns[f] for f in FLOAT_FIELDS]).all(axis=0)
    if not finite.all():
        box_of_row(columns, int(np.argmin(finite)))


class TestBoxColumns:
    @settings(max_examples=200, deadline=None)
    @given(
        yaws=st.lists(yaw_values, max_size=8),
        scored=st.booleans(),
        data=st.data(),
    )
    def test_rows_equal_boxes_built_one_by_one(self, yaws, scored, data):
        n = len(yaws)
        cx = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
        size = data.draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n))
        cls = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n))
        score = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)) if scored else None
        boxes = [
            BevBox(x, -x, s, 2 * s, y, c, None if score is None else score[i])
            for i, (x, s, y, c) in enumerate(zip(cx, size, yaws, cls))
        ]

        cols = BoxColumns(cx, [-x for x in cx], size, [2 * s for s in size], yaws, cls, score)

        assert repr(cols.rows()) == repr(tuple(boxes))
        assert repr([cols[i] for i in range(-n, n)]) == repr(boxes + boxes)
        assert BoxColumns.of(boxes) == cols and BoxColumns.of(cols) is cols
        assert cols[1:3] == BoxColumns.of(boxes[1:3]) and len(cols) == n
        assert cols.yaw.tolist() == [normalize_yaw(float(y)) for y in yaws]

    def test_columns_are_read_only_and_inputs_stay_writable(self):
        cx = np.array([0.0, 1.0])
        cols = BoxColumns(cx, [0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 9.0], [0, 1])
        assert cx.flags.writeable
        for name in ("cx", "cy", "length", "width", "yaw", "class_id", "score"):
            with pytest.raises(ValueError):
                getattr(cols, name)[...] = 0
        assert cols.class_id.dtype == np.int64 and np.isnan(cols.score).all()

    @pytest.mark.parametrize(
        "row",
        [(0.0, 0.0, 0.0, 1.0, 0.0, 0, None), (0.0, 0.0, 1.0, -2.0, 0.0, 0, None),
         (0.0, 0.0, 1.0, 1.0, 0.0, 0, 1.5), (0.0, 0.0, 1.0, 1.0, 0.0, 0, -0.1),
         (0.0, 0.0, 1.0, 1.0, math.inf, 0, None), (0.0, 0.0, 1.0, 1.0, -math.inf, 0, 0.5),
         (math.nan, 0.0, 1.0, 1.0, 0.0, 0, None), (math.inf, 0.0, 1.0, 1.0, 0.0, 0, 0.5),
         (0.0, math.nan, 1.0, 1.0, 0.0, 0, 0.5), (0.0, -math.inf, 1.0, 1.0, 0.0, 0, None),
         (0.0, 0.0, math.nan, 1.0, 0.0, 0, None), (0.0, 0.0, math.inf, 1.0, 0.0, 0, 0.5),
         (0.0, 0.0, 1.0, math.nan, 0.0, 0, 0.5), (0.0, 0.0, 1.0, math.inf, 0.0, 0, None),
         (0.0, 0.0, 1.0, 1.0, math.nan, 0, None), (0.0, 0.0, 1.0, 1.0, math.nan, 0, 0.5)],
    )
    def test_rejects_rows_a_box_rejects(self, row):
        with pytest.raises(ValueError) as box_error:
            BevBox(*row)
        good = (0.0, 0.0, 1.0, 1.0, 0.0, 0, 0.5 if row[-1] is not None else None)
        columns = [list(c) for c in zip(good, row)]
        if row[-1] is None:
            columns[-1] = None
        with pytest.raises(ValueError, match=re.escape(str(box_error.value))):
            BoxColumns(*columns)

    @pytest.mark.parametrize(
        "field, row",
        [("cx", (math.nan, 0.0, 1.0, 1.0, 0.0)), ("cy", (0.0, math.inf, 1.0, 1.0, 0.0)),
         ("length", (0.0, 0.0, math.inf, 1.0, 0.0)), ("width", (0.0, 0.0, 1.0, math.inf, 0.0)),
         ("yaw", (0.0, 0.0, 1.0, 1.0, math.nan)), ("yaw", (0.0, 0.0, 1.0, 1.0, -math.inf))],
    )
    def test_non_finite_field_is_named(self, field, row):
        value = [v for v in row if not math.isfinite(v)][0]
        message = f"box {field} must be finite, got {value}"
        with pytest.raises(ValueError, match=re.escape(message)):
            BevBox(*row)
        with pytest.raises(ValueError, match=re.escape(message)):
            BoxColumns(*([1.0, v] for v in row), [0, 0])

    def test_nan_footprint_keeps_the_footprint_message(self):
        for row in ((0.0, 0.0, math.nan, 1.0), (math.nan, 0.0, 1.0, math.nan)):
            with pytest.raises(ValueError, match="footprint must be positive"):
                BevBox(*row)
            with pytest.raises(ValueError, match="footprint must be positive"):
                BoxColumns(*([v] for v in row), [0.0], [0])

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 8), scored=st.booleans(), data=st.data())
    def test_first_bad_row_raises_its_box_error(self, n, scored, data):
        def column(values):
            return data.draw(st.lists(values, min_size=n, max_size=n))

        columns = {f: column(st.floats(-1e3, 1e3)) for f in ("cx", "cy", "yaw")}
        columns.update(length=column(st.floats(1e-3, 10.0)), width=column(st.floats(1e-3, 10.0)),
                       class_id=column(st.integers(0, 9)),
                       score=column(st.floats(0.0, 1.0) | st.just(math.nan)) if scored else None)
        fields = sorted(BAD_VALUES) if scored else sorted(set(BAD_VALUES) - {"score"})
        faults = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from(fields), st.integers(0, 5)),
            max_size=4,
        ))
        for i, field, pick in faults:
            columns[field][i] = BAD_VALUES[field][pick % len(BAD_VALUES[field])]
        expected, bad_rows = None, set()
        for i in range(n):
            try:
                box_of_row(columns, i)
            except ValueError as exc:
                expected = expected or str(exc)
                bad_rows.add(i)
        build = functools.partial(BoxColumns, *(columns[f] for f in FLOAT_FIELDS),
                                  columns["class_id"], columns["score"])

        if expected is None:
            assert repr(build().rows()) == repr(tuple(box_of_row(columns, i) for i in range(n)))
            three_pass_box_rules(columns)
            return
        with pytest.raises(ValueError) as error:
            build()
        assert str(error.value) == expected
        if len(bad_rows) == 1:
            with pytest.raises(ValueError) as old_error:
                three_pass_box_rules(columns)
            assert str(old_error.value) == expected

    @settings(max_examples=200, deadline=None)
    @given(yaws=st.lists(yaw_values, max_size=8), data=st.data())
    def test_column_corners_equal_box_corners_bit_for_bit(self, yaws, data):
        n = len(yaws)
        cx = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
        size = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
        cols = BoxColumns(cx, [-x for x in cx], size, size[::-1], yaws, [0] * n)

        c, s, corners = box_corners(cols.cx, cols.cy, cols.length, cols.width, cols.yaw)

        assert corners.shape == (4, 2, n) and c.shape == s.shape == (n,)
        for i, box in enumerate(cols.rows()):
            assert box.corners().tobytes() == np.ascontiguousarray(corners[..., i]).tobytes()
            assert (c[i], s[i]) == (math.cos(box.yaw), math.sin(box.yaw))

    @settings(max_examples=100, deadline=None)
    @given(yaws=st.lists(yaw_values, max_size=8), data=st.data())
    def test_index_array_selects_rows_as_columns(self, yaws, data):
        n = len(yaws)
        cols = BoxColumns(list(range(n)), [0.0] * n, [1.0] * n, [2.0] * n, yaws, [7] * n,
                          data.draw(st.none() | st.just([0.5] * n)))
        index = np.array(
            data.draw(st.lists(st.integers(-n, n - 1), max_size=10) if n else st.just([])),
            dtype=np.intp,
        )

        picked = cols[index]

        assert type(picked) is BoxColumns
        assert repr(picked.rows()) == repr(tuple(cols[int(i)] for i in index))
        assert not any(getattr(picked, f).flags.writeable for f in picked._fields)
        assert picked.class_id.dtype == np.int64 and picked.score.dtype == np.float64
        assert len(cols[np.array([], dtype=np.intp)]) == 0


class TestCenterDistance:
    def test_three_four_five(self):
        a = BevBox(0, 0, 1, 1)
        b = BevBox(3, 2, 1, 1)
        assert center_distance(a, b) == 3.605551275463989

    def test_symmetric_and_zero(self):
        rng = RNG(2)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            assert center_distance(a, b) == center_distance(b, a)
        c = BevBox(5, -3, 2, 1, yaw=0.7)
        d = BevBox(5, -3, 4, 2, yaw=-0.2)
        assert center_distance(c, d) == 0.0


class TestClipPolygon:
    def test_full_containment(self):
        outer = [(0, 0), (4, 0), (4, 4), (0, 4)]
        inner = [(1, 1), (2, 1), (2, 2), (1, 2)]
        clipped = clip_polygon(inner, outer)
        assert abs(polygon_area(clipped)) == pytest.approx(1.0)

    def test_disjoint_is_empty(self):
        a = [(0, 0), (1, 0), (1, 1), (0, 1)]
        b = [(5, 5), (6, 5), (6, 6), (5, 6)]
        assert clip_polygon(a, b) == []

    def test_half_overlap(self):
        a = [(0, 0), (2, 0), (2, 2), (0, 2)]
        b = [(1, 0), (3, 0), (3, 2), (1, 2)]
        clipped = clip_polygon(a, b)
        assert abs(polygon_area(clipped)) == pytest.approx(2.0)


class TestRotatedIou:
    def test_identical_boxes_exactly_one(self):
        rng = RNG(3)
        for _ in range(50):
            box = random_box(rng)
            assert rotated_iou_bev(box, box) == 1.0

    def test_disjoint_boxes_zero(self):
        a = BevBox(0, 0, 2, 2)
        b = BevBox(100, 100, 2, 2, yaw=1.0)
        assert rotated_iou_bev(a, b) == 0.0

    def test_containment(self):
        outer = BevBox(0, 0, 4, 4)
        inner = BevBox(0, 0, 2, 2)
        assert rotated_iou_bev(outer, inner) == pytest.approx(0.25, abs=1e-12)

    def test_axis_aligned_half_overlap(self):
        a = BevBox(0, 0, 2, 2)
        b = BevBox(1, 0, 2, 2)
        # intersection 1x2 = 2, union 8 - 2 = 6
        assert rotated_iou_bev(a, b) == pytest.approx(2.0 / 6.0, abs=1e-12)

    def test_unit_square_against_45_degree_rotation(self):
        # Intersection is a regular octagon of area 2(sqrt2 - 1); the IoU
        # reduces to 1/sqrt(2).
        a = BevBox(0, 0, 1, 1, 0.0)
        b = BevBox(0, 0, 1, 1, math.pi / 4)
        assert rotated_iou_bev(a, b) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_symmetry(self):
        rng = RNG(4)
        for _ in range(100):
            a = random_box(rng)
            b = random_box(rng, span=3.0)
            assert rotated_iou_bev(a, b) == pytest.approx(
                rotated_iou_bev(b, a), abs=1e-12
            )

    def test_range(self):
        rng = RNG(5)
        for _ in range(200):
            a = random_box(rng, span=3.0)
            b = random_box(rng, span=3.0)
            iou = rotated_iou_bev(a, b)
            assert 0.0 <= iou <= 1.0

    def test_translation_invariance(self):
        rng = RNG(6)
        for _ in range(50):
            a = random_box(rng, span=2.0)
            b = random_box(rng, span=2.0)
            tx, ty = rng.uniform(-50, 50, size=2)
            a2 = BevBox(a.cx + tx, a.cy + ty, a.length, a.width, a.yaw)
            b2 = BevBox(b.cx + tx, b.cy + ty, b.length, b.width, b.yaw)
            assert rotated_iou_bev(a2, b2) == pytest.approx(
                rotated_iou_bev(a, b), abs=1e-9
            )

    def test_joint_rotation_invariance(self):
        rng = RNG(7)
        for _ in range(50):
            a = random_box(rng, span=2.0)
            b = random_box(rng, span=2.0)
            theta = float(rng.uniform(-math.pi, math.pi))
            c, s = math.cos(theta), math.sin(theta)

            def rot(box):
                return BevBox(
                    c * box.cx - s * box.cy,
                    s * box.cx + c * box.cy,
                    box.length,
                    box.width,
                    box.yaw + theta,
                )

            assert rotated_iou_bev(rot(a), rot(b)) == pytest.approx(
                rotated_iou_bev(a, b), abs=1e-9
            )

    def test_matches_rasterization(self):
        rng = RNG(8)
        for _ in range(25):
            a = random_box(rng, span=2.0)
            b = random_box(rng, span=2.0)
            exact = rotated_iou_bev(a, b)
            approx = raster_iou(a, b)
            assert exact == pytest.approx(approx, abs=2e-2)


class TestBoxPoolPoints:
    def test_seven_meter_fixture(self):
        # A 7 m x 7 m box at the origin, expansion 1.0, 7x7 grid: sample
        # points are the integer lattice {-3..3} x {-3..3}.
        pts = box_pool_points(BevBox(0, 0, 7, 7, 0.0), BoxPoolConfig(7, 7, 1.0))
        assert pts.shape == (49, 2)
        expect_x, expect_y = np.meshgrid(np.arange(-3, 4), np.arange(-3, 4))
        expect = np.stack([expect_x.ravel(), expect_y.ravel()], axis=1).astype(float)
        np.testing.assert_allclose(pts, expect, atol=1e-9)

    def test_row_major_ordering(self):
        # Rows sweep the width (v) axis, columns the length (u) axis.
        pts = box_pool_points(BevBox(0, 0, 4, 2, 0.0), BoxPoolConfig(2, 2, 1.0))
        np.testing.assert_allclose(
            pts, [(-1.0, -0.5), (1.0, -0.5), (-1.0, 0.5), (1.0, 0.5)], atol=1e-12
        )

    def test_expansion_scales_lattice(self):
        base = box_pool_points(BevBox(0, 0, 2, 2, 0.0), BoxPoolConfig(3, 3, 1.0))
        grown = box_pool_points(BevBox(0, 0, 2, 2, 0.0), BoxPoolConfig(3, 3, 1.5))
        np.testing.assert_allclose(grown, base * 1.5, atol=1e-12)

    def test_rotation_moves_points_rigidly(self):
        box0 = BevBox(2.0, -1.0, 5.0, 3.0, 0.0)
        box90 = BevBox(2.0, -1.0, 5.0, 3.0, math.pi / 2)
        p0 = box_pool_points(box0, BoxPoolConfig(3, 5, 1.2))
        p90 = box_pool_points(box90, BoxPoolConfig(3, 5, 1.2))
        rel0 = p0 - [2.0, -1.0]
        rel90 = p90 - [2.0, -1.0]
        np.testing.assert_allclose(rel90[:, 0], -rel0[:, 1], atol=1e-9)
        np.testing.assert_allclose(rel90[:, 1], rel0[:, 0], atol=1e-9)

    def test_single_point_grid_is_center(self):
        pts = box_pool_points(BevBox(3.5, -2.5, 4, 2, 1.1), BoxPoolConfig(1, 1, 1.2))
        np.testing.assert_allclose(pts, [(3.5, -2.5)], atol=1e-12)

    def test_count_matches_grid(self):
        pts = box_pool_points(BevBox(0, 0, 3, 2, 0.4), BoxPoolConfig(5, 3, 1.2))
        assert pts.shape == (15, 2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BoxPoolConfig(0, 7, 1.2)
        with pytest.raises(ValueError):
            BoxPoolConfig(7, 7, 0.0)


def reference_bilinear(channel, gx, gy):
    """Test-local re-derivation with explicit zero padding.

    Terms are added x-fastest, (x0, y0), (x0+1, y0), (x0, y0+1),
    (x0+1, y0+1), each as ``wx * wy * value``, so the sum rounds exactly
    as the package's kernel does and results compare with ``==``.
    """
    ny, nx = channel.shape
    x0, y0 = math.floor(gx), math.floor(gy)
    total = 0.0
    for iy, wy in ((y0, 1.0 - (gy - y0)), (y0 + 1, gy - y0)):
        for ix, wx in ((x0, 1.0 - (gx - x0)), (x0 + 1, gx - x0)):
            v = channel[iy, ix] if 0 <= ix < nx and 0 <= iy < ny else 0.0
            total += wx * wy * float(v)
    return total


class TestBilinearSample:
    def test_exact_at_lattice_points(self):
        rng = RNG(9)
        channel = rng.random((6, 5)).astype(np.float32)
        for y in range(6):
            for x in range(5):
                assert bilinear_sample(channel, float(x), float(y)) == float(
                    channel[y, x]
                )

    def test_interior_hand_value(self):
        channel = np.array([[0.0, 1.0], [2.0, 3.0]], dtype=np.float32)
        # (0.5, 0.5) averages all four cells.
        assert bilinear_sample(channel, 0.5, 0.5) == pytest.approx(1.5)
        # (0.25, 0.0) blends along x only.
        assert bilinear_sample(channel, 0.25, 0.0) == pytest.approx(0.25)

    def test_zero_padding_outside(self):
        channel = np.ones((4, 4), dtype=np.float32)
        assert bilinear_sample(channel, -1.0, 2.0) == 0.0
        assert bilinear_sample(channel, 2.0, 10.0) == 0.0
        # Half a cell beyond the border blends with the zero pad.
        assert bilinear_sample(channel, -0.5, 1.0) == pytest.approx(0.5)
        assert bilinear_sample(channel, 3.5, 1.0) == pytest.approx(0.5)

    def test_matches_reference_on_random_points(self):
        rng = RNG(10)
        channel = rng.random((8, 7)).astype(np.float32)
        for _ in range(300):
            gx = float(rng.uniform(-2, 9))
            gy = float(rng.uniform(-2, 10))
            assert bilinear_sample(channel, gx, gy) == pytest.approx(
                reference_bilinear(channel, gx, gy), abs=1e-12
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        channel = np.ones((3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="finite"):
            bilinear_sample(channel, bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            bilinear_sample(channel, 1.0, bad)


# Sample coordinates in grid cells: lattice points (the border included),
# half-cell points and arbitrary points, inside and up to 3 cells outside
# grids of 1 to 8 cells a side.
COORDS = st.one_of(
    st.integers(-3, 11).map(float),
    st.integers(-3, 11).map(lambda i: i + 0.5),
    st.floats(-3.0, 11.0),
)


@st.composite
def random_heatmap(draw, num_classes=None, cell_size=None):
    spec = BevGridSpec(
        draw(st.integers(1, 8)),
        draw(st.integers(1, 8)),
        num_classes or draw(st.integers(1, 3)),
        cell_size or draw(st.sampled_from([0.5, 1.0, 1.3])),
        draw(st.sampled_from([0.0, -1.0, 0.25])),
        draw(st.sampled_from([0.0, -2.0, 0.4])),
    )
    values = draw(arrays(np.float32, spec.shape, elements=st.floats(0.0, 1.0, width=32)))
    return Heatmap(spec, values)


class TestSamplingMatchesReference:
    """Every sampler equals a per-point, per-channel loop over
    ``reference_bilinear`` exactly, not just to a tolerance."""

    @settings(max_examples=200, deadline=None)
    @given(hm=random_heatmap(), gx=COORDS, gy=COORDS)
    def test_bilinear_sample(self, hm, gx, gy):
        for channel in hm.values:
            got = bilinear_sample(channel, gx, gy)
            assert type(got) is float
            assert got == reference_bilinear(channel, gx, gy)

    @settings(max_examples=150, deadline=None)
    @given(
        hm=random_heatmap(),
        cx=COORDS,
        cy=COORDS,
        length=st.sampled_from([0.5, 1.0, 2.0, 3.7]),
        width=st.sampled_from([0.5, 1.0, 2.0, 2.9]),
        yaw=st.one_of(st.sampled_from([0.0, math.pi / 2]), st.floats(-math.pi, math.pi)),
        grid=st.tuples(st.integers(1, 7), st.integers(1, 7)),
        expansion=st.sampled_from([1.0, 1.2]),
    )
    def test_box_pool(self, hm, cx, cy, length, width, yaw, grid, expansion):
        box = BevBox(cx, cy, length, width, yaw)
        cfg = BoxPoolConfig(*grid, expansion)
        expect = []
        for wx, wy in box_pool_points(box, cfg):
            gx, gy = hm.spec.world_to_grid((wx, wy))
            expect.extend(reference_bilinear(channel, gx, gy) for channel in hm.values)
        got = box_pool(hm, box, cfg)
        assert got.dtype == np.float64
        assert got.shape == (len(expect),)
        assert got.tolist() == expect

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        num_classes=st.integers(1, 3),
        ref=st.tuples(COORDS, COORDS),
        points=st.integers(1, 4),
    )
    def test_deform_sample(self, data, num_classes, ref, points):
        cfg = DeformSamplingConfig(points, 3, (1, 2, 4))
        pyramid = [
            data.draw(random_heatmap(num_classes, cell_size=0.5 * factor))
            for factor in cfg.scale_factors
        ]
        offsets = data.draw(
            arrays(np.float64, (3, points, 2), elements=st.one_of(
                st.integers(-3, 3).map(float), st.floats(-3.0, 3.0)
            ))
        )
        gx0, gy0 = pyramid[0].spec.world_to_grid(ref)
        expect = [
            [
                [
                    reference_bilinear(
                        channel, gx0 / factor + offsets[s, j, 0], gy0 / factor + offsets[s, j, 1]
                    )
                    for channel in pyramid[s].values
                ]
                for j in range(points)
            ]
            for s, factor in enumerate(cfg.scale_factors)
        ]
        got = deform_sample(pyramid, ref, offsets, cfg)
        assert got.dtype == np.float64
        assert got.shape == (3, points, num_classes)
        assert got.tolist() == expect


class TestBoxPool:
    def _heatmap(self, num_classes=3, size=16):
        spec = BevGridSpec(size, size, num_classes, 0.5, -4.0, -4.0)
        values = np.zeros(spec.shape, dtype=np.float32)
        for c in range(num_classes):
            values[c] = (c + 1) / 10.0
        return Heatmap(spec, values)

    def test_constant_channels_pool_to_constants(self):
        hm = self._heatmap()
        out = box_pool(hm, BevBox(0.0, 0.0, 2.0, 1.0, 0.3), BoxPoolConfig(3, 3, 1.0))
        assert out.shape == (3 * 3 * 3,)
        for point in range(9):
            for c in range(3):
                assert out[point * 3 + c] == pytest.approx((c + 1) / 10.0, abs=1e-6)

    def test_point_major_layout(self):
        hm = self._heatmap(num_classes=2)
        out = box_pool(hm, BevBox(0.0, 0.0, 1.0, 1.0, 0.0), BoxPoolConfig(2, 2, 1.0))
        assert out.shape == (8,)
        np.testing.assert_allclose(out[0::2], 0.1, atol=1e-6)
        np.testing.assert_allclose(out[1::2], 0.2, atol=1e-6)

    def test_out_of_map_points_zero_padded(self):
        spec = BevGridSpec(4, 4, 1, 1.0, 0.0, 0.0)
        hm = Heatmap(spec, np.ones(spec.shape, dtype=np.float32))
        # Box centered far off the map: every sample reads zero.
        out = box_pool(hm, BevBox(100.0, 100.0, 2.0, 2.0, 0.0), BoxPoolConfig(3, 3, 1.0))
        np.testing.assert_array_equal(out, 0.0)


class TestDeformSample:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            DeformSamplingConfig(points_per_scale=0)
        with pytest.raises(ValueError):
            DeformSamplingConfig(num_scales=2, scale_factors=(1, 2, 4))
        with pytest.raises(ValueError):
            DeformSamplingConfig(num_scales=2, scale_factors=(2, 4))
        with pytest.raises(ValueError):
            DeformSamplingConfig(num_scales=3, scale_factors=(1, 4, 2))

    def test_defaults_match_expected_layout(self):
        cfg = DeformSamplingConfig()
        assert cfg.points_per_scale == 4
        assert cfg.num_scales == 3
        assert cfg.scale_factors == (1, 2, 4)

    def _pyramid(self):
        rng = RNG(11)
        base_spec = BevGridSpec(16, 16, 2, 0.5, 0.0, 0.0)
        levels = []
        for factor in (1, 2, 4):
            spec = BevGridSpec(16 // factor, 16 // factor, 2, 0.5 * factor, 0.0, 0.0)
            levels.append(Heatmap(spec, rng.random(spec.shape).astype(np.float32)))
        return base_spec, levels

    def test_zero_offsets_single_scale_equals_bilinear(self):
        rng = RNG(12)
        spec = BevGridSpec(12, 12, 3, 0.5, -1.0, -1.0)
        hm = Heatmap(spec, rng.random(spec.shape).astype(np.float32))
        cfg = DeformSamplingConfig(points_per_scale=1, num_scales=1, scale_factors=(1,))
        ref = (1.7, 2.3)
        out = deform_sample([hm], ref, np.zeros((1, 1, 2)), cfg)
        gx, gy = spec.world_to_grid(ref)
        for c in range(3):
            assert out[0, 0, c] == pytest.approx(bilinear_sample(hm.values[c], gx, gy))

    def test_multi_scale_offsets(self):
        _, levels = self._pyramid()
        cfg = DeformSamplingConfig(points_per_scale=2, num_scales=3, scale_factors=(1, 2, 4))
        rng = RNG(13)
        offsets = rng.uniform(-1.5, 1.5, size=(3, 2, 2))
        ref = (3.3, 4.1)
        out = deform_sample(levels, ref, offsets, cfg)
        assert out.shape == (3, 2, 2)
        gx0, gy0 = levels[0].spec.world_to_grid(ref)
        for s, factor in enumerate((1, 2, 4)):
            for j in range(2):
                for c in range(2):
                    expect = bilinear_sample(
                        levels[s].values[c],
                        gx0 / factor + offsets[s, j, 0],
                        gy0 / factor + offsets[s, j, 1],
                    )
                    assert out[s, j, c] == pytest.approx(expect, abs=1e-12)

    def test_wrong_pyramid_length(self):
        _, levels = self._pyramid()
        cfg = DeformSamplingConfig()
        with pytest.raises(ValueError):
            deform_sample(levels[:2], (0.0, 0.0), np.zeros((3, 4, 2)), cfg)

    def test_wrong_offsets_shape(self):
        _, levels = self._pyramid()
        cfg = DeformSamplingConfig()
        with pytest.raises(ValueError):
            deform_sample(levels, (0.0, 0.0), np.zeros((3, 2, 2)), cfg)
