import json
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevprobe.bev_grid import (
    BevGridSpec,
    GaussianRenderConfig,
    Heatmap,
    adopt_grid,
    draw_gaussian_peak,
    gaussian_radius,
    load_heatmap,
    radius_for_box,
    render_gaussian_heatmap,
    save_heatmap,
    write_grid_tensor,
    _unit_gaussian,
)
from bevprobe.cli import main
from bevprobe.errors import DataError
from bevprobe.geometry import BevBox
from bevprobe.hip import PositiveMask, save_mask

RNG = np.random.default_rng


def nuscenes_like_spec():
    # 0.075 m voxels pooled 8x -> 0.6 m cells over [-54, 54] m.
    return BevGridSpec(180, 180, 10, 0.6, -54.0, -54.0)


class TestBevGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BevGridSpec(0, 10, 1, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            BevGridSpec(10, 10, 0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            BevGridSpec(10, 10, 1, 0.0, 0.0, 0.0)

    def test_world_origin_maps_to_grid_center(self):
        spec = nuscenes_like_spec()
        assert spec.world_to_grid((0.0, 0.0)) == (90.0, 90.0)
        assert spec.world_to_grid((0.0, 0.0)) == (90.0, 90.0)

    def test_grid_to_world_inverse(self):
        spec = nuscenes_like_spec()
        rng = RNG(0)
        for _ in range(100):
            p = (float(rng.uniform(-54, 54)), float(rng.uniform(-54, 54)))
            g = spec.world_to_grid(p)
            back = spec.grid_to_world(g)
            assert back[0] == pytest.approx(p[0], abs=1e-9)
            assert back[1] == pytest.approx(p[1], abs=1e-9)
        assert spec.grid_to_world((90.0, 90.0)) == (0.0, 0.0)

    def test_contains_cell(self):
        spec = BevGridSpec(4, 3, 1, 1.0, 0.0, 0.0)
        assert spec.contains_cell(0, 0)
        assert spec.contains_cell(3, 2)
        assert not spec.contains_cell(4, 0)
        assert not spec.contains_cell(0, 3)
        assert not spec.contains_cell(-1, 0)


class TestHeatmap:
    def test_shape_checked(self):
        spec = BevGridSpec(4, 4, 2, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Heatmap(spec, np.zeros((2, 4, 5), dtype=np.float32))

    def test_range_checked(self):
        spec = BevGridSpec(2, 2, 1, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Heatmap(spec, np.full(spec.shape, 1.5, dtype=np.float32))
        with pytest.raises(ValueError):
            Heatmap(spec, np.full(spec.shape, -0.1, dtype=np.float32))
        bad = np.zeros(spec.shape, dtype=np.float32)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Heatmap(spec, bad)

    def test_values_frozen_and_copied(self):
        spec = BevGridSpec(2, 2, 1, 1.0, 0.0, 0.0)
        source = np.zeros(spec.shape, dtype=np.float32)
        hm = Heatmap(spec, source)
        source[0, 0, 0] = 1.0
        assert hm.values[0, 0, 0] == 0.0
        with pytest.raises(ValueError):
            hm.values[0, 0, 0] = 0.5

    def test_adopted_array_is_frozen_not_copied_and_still_checked(self):
        spec = BevGridSpec(2, 2, 1, 1.0, 0.0, 0.0)
        for cls, dtype, bad in ((Heatmap, np.float32, 1.5), (PositiveMask, np.uint8, 2)):
            fresh = np.zeros(spec.shape, dtype=dtype)
            grid = adopt_grid(cls, spec, fresh)
            assert type(grid) is cls and grid.spec is spec
            assert getattr(grid, "values" if cls is Heatmap else "bits") is fresh
            assert not fresh.flags.writeable
            with pytest.raises(ValueError, match="shape"):
                adopt_grid(cls, spec, np.zeros((1, 2, 3), dtype=dtype))
            with pytest.raises(ValueError, match="must"):
                adopt_grid(cls, spec, np.full(spec.shape, bad, dtype=dtype))
        with pytest.raises(ValueError, match="NaN"):
            adopt_grid(Heatmap, spec, np.full(spec.shape, np.nan, dtype=np.float32))

    def test_mask_bits_frozen_and_copied(self):
        spec = BevGridSpec(2, 2, 1, 1.0, 0.0, 0.0)
        source = np.zeros(spec.shape, dtype=np.uint8)
        mask = PositiveMask(spec, source)
        source[0, 0, 0] = 1
        assert mask.bits[0, 0, 0] == 0
        with pytest.raises(ValueError):
            mask.bits[0, 0, 0] = 1

    def test_zeros(self):
        spec = BevGridSpec(3, 2, 2, 1.0, 0.0, 0.0)
        hm = Heatmap.zeros(spec)
        assert hm.values.shape == (2, 2, 3)
        assert hm.values.dtype == np.float32
        assert not hm.values.any()


class TestGaussianRadius:
    def test_symmetric_in_extents(self):
        rng = RNG(1)
        for _ in range(50):
            h = float(rng.uniform(1, 30))
            w = float(rng.uniform(1, 30))
            assert gaussian_radius(h, w, 0.1) == gaussian_radius(w, h, 0.1)

    def test_monotone_in_overlap(self):
        # Demanding more overlap shrinks the admissible displacement.
        radii = [gaussian_radius(10.0, 6.0, o) for o in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a > b for a, b in zip(radii, radii[1:]))
        assert gaussian_radius(10.0, 6.0, 0.999) == pytest.approx(0.0, abs=1e-2)

    def test_monotone_in_extent(self):
        radii = [gaussian_radius(s, s, 0.1) for s in (2.0, 5.0, 10.0, 20.0)]
        assert all(a < b for a, b in zip(radii, radii[1:]))

    def test_positive(self):
        rng = RNG(2)
        for _ in range(100):
            r = gaussian_radius(
                float(rng.uniform(0.5, 40)), float(rng.uniform(0.5, 40)),
                float(rng.uniform(0.05, 0.95)),
            )
            assert r > 0.0

    def test_overlap_guarantee_for_aligned_diagonal_shift(self):
        # The tightest of the three bounds covers the case of both corners
        # shifting inward: a box shifted by (r, r) against one grown by
        # (r, r) must still reach the required IoU.
        h, w, overlap = 12.0, 7.0, 0.1
        r = gaussian_radius(h, w, overlap)
        inter = (h - r) * (w - r)
        union = h * w + (h + r) * (w + r) - inter
        assert inter / union >= overlap - 1e-9

    def test_min_radius_clamp(self):
        spec = BevGridSpec(100, 100, 1, 0.5, 0.0, 0.0)
        cfg = GaussianRenderConfig(min_overlap=0.1, min_radius_cells=2)
        assert radius_for_box(0.5, 0.5, spec, cfg) == 2
        assert radius_for_box(20.0, 12.0, spec, cfg) >= 2

    def test_render_config_validation(self):
        with pytest.raises(ValueError):
            GaussianRenderConfig(min_overlap=0.0)
        with pytest.raises(ValueError):
            GaussianRenderConfig(min_overlap=1.0)
        with pytest.raises(ValueError):
            GaussianRenderConfig(min_radius_cells=0)


class TestDrawGaussianPeak:
    def test_center_receives_exact_peak(self):
        canvas = np.zeros((11, 11))
        assert draw_gaussian_peak(canvas, 5, 5, 2, peak=0.75)
        assert canvas[5, 5] == 0.75

    def test_window_extent(self):
        canvas = np.zeros((11, 11))
        draw_gaussian_peak(canvas, 5, 5, 2)
        assert (canvas[5 - 2 : 5 + 3, 5 - 2 : 5 + 3] > 0).all()
        assert canvas[5, 8] == 0.0
        assert canvas[8, 5] == 0.0

    def test_sigma_is_radius_over_three(self):
        canvas = np.zeros((11, 11))
        draw_gaussian_peak(canvas, 5, 5, 3)
        sigma = 3 / 3.0
        assert canvas[5, 6] == pytest.approx(math.exp(-1 / (2 * sigma**2)))
        assert canvas[6, 6] == pytest.approx(math.exp(-2 / (2 * sigma**2)))

    def test_border_clipping(self):
        canvas = np.zeros((6, 6))
        assert draw_gaussian_peak(canvas, 0, 0, 2)
        assert canvas[0, 0] == 1.0
        assert canvas.max() == 1.0

    def test_off_canvas_center_is_skipped(self):
        canvas = np.zeros((6, 6))
        assert not draw_gaussian_peak(canvas, -1, 3, 2)
        assert not draw_gaussian_peak(canvas, 3, 6, 2)
        assert not canvas.any()

    def test_max_combination(self):
        a = np.zeros((9, 9))
        draw_gaussian_peak(a, 4, 4, 2, peak=1.0)
        draw_gaussian_peak(a, 5, 4, 2, peak=1.0)
        b1 = np.zeros((9, 9))
        draw_gaussian_peak(b1, 4, 4, 2, peak=1.0)
        b2 = np.zeros((9, 9))
        draw_gaussian_peak(b2, 5, 4, 2, peak=1.0)
        np.testing.assert_array_equal(a, np.maximum(b1, b2))


    def test_cached_kernel_is_read_only(self):
        kernel = _unit_gaussian(3)
        assert kernel is _unit_gaussian(3)
        assert not kernel.flags.writeable
        with pytest.raises(ValueError):
            kernel[0, 0] = 2.0

    @pytest.mark.parametrize("radius", [1, 2, 3, 5, 8, 13, 200, 600])
    @pytest.mark.parametrize("peak", [1.0, 0.75, 0.3141592653589793, 1e-3])
    def test_equals_freshly_computed_kernel(self, radius, peak):
        # Radii 200 and 600 are past the cache bound, and wider than the
        # second canvas, which cuts their kernels on every side.
        for ny, nx in [(2 * radius + 3, 2 * radius + 3), (37, 53)]:
            for x, y in [(radius + 1, radius + 2), (0, 0), (2 * radius + 1, 1),
                         (nx - 1, ny // 3), (nx // 2, ny - 1), (nx // 3, ny // 2)]:
                if x < nx and y < ny:
                    canvas = np.zeros((ny, nx))
                    draw_gaussian_peak(canvas, x, y, radius, peak)
                    assert (canvas == full_kernel_splat((ny, nx), x, y, radius, peak)).all()

    @settings(max_examples=100, deadline=None)
    @given(radius=st.integers(1, 400), ny=st.integers(1, 80), nx=st.integers(1, 80),
           peak=st.floats(1e-6, 1.0), data=st.data())
    def test_any_splat_equals_the_full_kernel_cut_to_the_canvas(self, radius, ny, nx, peak, data):
        x, y = data.draw(st.integers(0, nx - 1)), data.draw(st.integers(0, ny - 1))
        canvas = np.zeros((ny, nx))
        draw_gaussian_peak(canvas, x, y, radius, peak)
        assert canvas.tobytes() == full_kernel_splat((ny, nx), x, y, radius, peak).tobytes()

    def test_wide_splat_allocates_only_its_canvas_window(self):
        # One 3,000 m box on a 16 x 16 grid of 0.5 m cells has a radius of
        # 2,051 cells: a full kernel would take 4103^2 float64s, 135 MB.
        spec = BevGridSpec(16, 16, 1, 0.5, -4.0, -4.0)
        box = BevBox(0.0, 0.0, 3000.0, 3000.0)
        assert radius_for_box(box.length, box.width, spec, GaussianRenderConfig()) == 2051
        tracemalloc.start()
        try:
            hm, skipped = render_gaussian_heatmap([box], spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert skipped == 0 and hm.values.max() == 1.0 and peak < 1 << 20

    def test_wide_kernels_are_not_cached(self):
        _unit_gaussian.cache_clear()
        for radius in (128, 200, 2051):
            assert draw_gaussian_peak(np.zeros((9, 9)), 4, 4, radius)
        assert _unit_gaussian.cache_info().currsize == 0
        draw_gaussian_peak(np.zeros((9, 9)), 4, 4, 127)  # 255^2 cells: within the bound
        assert _unit_gaussian.cache_info().currsize == 1


def full_kernel_splat(shape, x, y, radius, peak):
    """The splat as first written: exp evaluated over the whole (2r+1)^2
    window, scaled by the peak, then cut to the canvas."""
    sigma = radius / 3.0
    ax = np.arange(-radius, radius + 1, dtype=np.float64)
    bump = peak * np.exp(-(ax[None, :] ** 2 + ax[:, None] ** 2) / (2.0 * sigma * sigma))
    ny, nx = shape
    padded = np.zeros((ny + 2 * radius, nx + 2 * radius))
    padded[y : y + 2 * radius + 1, x : x + 2 * radius + 1] = bump
    return padded[radius : radius + ny, radius : radius + nx]


class TestRenderGaussianHeatmap:
    def _spec(self):
        return BevGridSpec(40, 40, 3, 0.5, -10.0, -10.0)

    def test_center_cell_exactly_one(self):
        spec = self._spec()
        gt = BevBox(0.08, -0.04, 4.0, 2.0, 0.3, class_id=1)
        hm, skipped = render_gaussian_heatmap([gt], spec)
        assert skipped == 0
        gx, gy = spec.world_to_grid((gt.cx, gt.cy))
        assert hm.values[1, round(gy), round(gx)] == 1.0
        assert hm.values[0].max() == 0.0
        assert hm.values[2].max() == 0.0

    def test_max_combination_of_overlapping_objects(self):
        spec = self._spec()
        a = BevBox(0.0, 0.0, 4.0, 2.0, 0.0, class_id=0)
        b = BevBox(1.0, 0.5, 4.0, 2.0, 0.0, class_id=0)
        joint, _ = render_gaussian_heatmap([a, b], spec)
        lone_a, _ = render_gaussian_heatmap([a], spec)
        lone_b, _ = render_gaussian_heatmap([b], spec)
        np.testing.assert_array_equal(
            joint.values, np.maximum(lone_a.values, lone_b.values)
        )

    def test_out_of_map_skip_count(self):
        spec = self._spec()
        inside = BevBox(0.0, 0.0, 2.0, 2.0, class_id=0)
        outside = BevBox(100.0, 100.0, 2.0, 2.0, class_id=0)
        hm, skipped = render_gaussian_heatmap([inside, outside, outside], spec)
        assert skipped == 2
        assert hm.values.max() == 1.0

    def test_invalid_class_raises(self):
        spec = self._spec()
        with pytest.raises(ValueError):
            render_gaussian_heatmap([BevBox(0, 0, 2, 2, class_id=3)], spec)
        with pytest.raises(ValueError):
            render_gaussian_heatmap([BevBox(0, 0, 2, 2, class_id=-1)], spec)

    def test_values_in_unit_range(self):
        spec = self._spec()
        rng = RNG(3)
        gts = [
            BevBox(
                float(rng.uniform(-9, 9)), float(rng.uniform(-9, 9)),
                float(rng.uniform(0.5, 6)), float(rng.uniform(0.5, 3)),
                float(rng.uniform(-3, 3)), int(rng.integers(3)),
            )
            for _ in range(30)
        ]
        hm, _ = render_gaussian_heatmap(gts, spec)
        assert hm.values.min() >= 0.0
        assert hm.values.max() <= 1.0


class TestHeatmapFileFormat:
    def _heatmap(self):
        spec = BevGridSpec(12, 10, 2, 0.5, -3.0, -2.5)
        rng = RNG(4)
        return Heatmap(spec, rng.random(spec.shape).astype(np.float32))

    def test_roundtrip(self, tmp_path):
        hm = self._heatmap()
        path = tmp_path / "map.bevgrid"
        save_heatmap(path, hm)
        back = load_heatmap(path)
        assert back.spec == hm.spec
        np.testing.assert_array_equal(back.values, hm.values)

    def test_header_line_is_json(self, tmp_path):
        hm = self._heatmap()
        path = tmp_path / "map.bevgrid"
        save_heatmap(path, hm)
        header_line = path.read_bytes().split(b"\n", 1)[0]
        header = json.loads(header_line)
        assert header["dtype"] == "f32"
        assert header["layout"] == "CYX"
        assert header["endianness"] == "little"
        assert header["spec"]["size_x"] == 12
        assert header["spec"]["size_y"] == 10

    def test_deterministic_bytes(self, tmp_path):
        hm = self._heatmap()
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_heatmap(p1, hm)
        save_heatmap(p2, hm)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_blob_rejected(self, tmp_path):
        hm = self._heatmap()
        path = tmp_path / "map.bevgrid"
        save_heatmap(path, hm)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(DataError):
            load_heatmap(path)

    def test_oversized_blob_rejected(self, tmp_path):
        hm = self._heatmap()
        path = tmp_path / "map.bevgrid"
        save_heatmap(path, hm)
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(DataError, match="header implies"):
            load_heatmap(path)

    def test_nan_payload_rejected(self, tmp_path):
        spec = BevGridSpec(3, 2, 1, 1.0, 0.0, 0.0)
        values = np.zeros(spec.shape, dtype=np.float32)
        values[0, 1, 2] = np.nan
        path = tmp_path / "map.bevgrid"
        write_grid_tensor(path, spec, values, "f32")
        with pytest.raises(DataError, match="NaN"):
            load_heatmap(path)

    def test_not_a_container_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"hello world\n\x00\x01")
        with pytest.raises(DataError):
            load_heatmap(path)
        path.write_bytes(b"\xff\xfe binary junk without newline")
        with pytest.raises(DataError):
            load_heatmap(path)

    def test_bad_header_spec_rejected(self, tmp_path, capsys):
        hm = self._heatmap()
        path = tmp_path / "map.bevgrid"
        save_heatmap(path, hm)
        header, blob = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        del doc["spec"]["size_x"]
        path.write_bytes(json.dumps(doc).encode() + b"\n" + blob)
        with pytest.raises(DataError):
            load_heatmap(path)
        cases = [
            ("origin_x", math.nan), ("cell_size", math.inf), ("num_classes", True),
            ("size_x", 12.0), ("cell_size", 1e308),
        ]
        for field, value in cases:
            doc = json.loads(header)
            doc["spec"][field] = value
            path.write_bytes(json.dumps(doc).encode() + b"\n" + blob)
            with pytest.raises(DataError, match=field):
                load_heatmap(path)
            out = tmp_path / "out"
            assert main(["probe", "--stage", str(path), "--output-dir", str(out), "--k", "3"]) == 3
            err = capsys.readouterr().err
            assert field in err and "Traceback" not in err
            assert not out.exists()

    def test_pipe_reads_like_a_file(self, tmp_path):
        # A pipe reports no size, so its blob is read and then counted.
        path = tmp_path / "map.bevgrid"
        save_heatmap(path, self._heatmap())
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        for tail in (b"", b"\x00"):
            writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes() + tail,))
            writer.start()
            try:
                if tail:
                    with pytest.raises(DataError, match="blob holds 961 bytes, header implies 960"):
                        load_heatmap(fifo)
                else:
                    assert load_heatmap(fifo).values.tobytes() == load_heatmap(path).values.tobytes()
            finally:
                writer.join()
        # A header that no memory can hold, on a pipe whose size is unknown.
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        header["spec"].update(size_x=10**6, size_y=10**6, num_classes=1000)
        writer = threading.Thread(target=fifo.write_bytes,
                                  args=(json.dumps(header).encode() + b"\n" + bytes(64),))
        writer.start()
        try:
            with pytest.raises(DataError):
                load_heatmap(fifo)
        finally:
            writer.join()

    def test_loaded_values_are_read_only(self, tmp_path):
        path = tmp_path / "map.bevgrid"
        save_heatmap(path, self._heatmap())
        back = load_heatmap(path)
        assert not back.values.flags.writeable and back.values.flags.aligned
        with pytest.raises(ValueError):
            back.values[0, 0, 0] = 0.5

    @pytest.mark.parametrize("case", ["truncated", "extra_byte", "no_newline", "empty", "u8"])
    def test_malformed_file_message_and_probe_exit(self, tmp_path, capsys, case):
        hm = self._heatmap()
        path = tmp_path / "map.bevgrid"
        save_heatmap(path, hm)
        data = path.read_bytes()
        header = data.split(b"\n", 1)[0]
        size = hm.values.nbytes
        if case == "truncated":
            path.write_bytes(data[:-1])
            message = f"{path}: blob holds {size - 1} bytes, header implies {size}"
        elif case == "extra_byte":
            path.write_bytes(data + b"\x00")
            message = f"{path}: blob holds {size + 1} bytes, header implies {size}"
        elif case == "no_newline":
            path.write_bytes(header)
            message = f"{path}: missing header line"
        elif case == "empty":
            path.write_bytes(b"")
            message = f"{path}: missing header line"
        else:
            save_mask(path, PositiveMask.zeros(hm.spec))
            message = f"{path}: expected an f32 heatmap, found dtype 'u8'"
        with pytest.raises(DataError) as info:
            load_heatmap(path)
        assert str(info.value) == message
        out = tmp_path / "out"
        assert main(["probe", "--stage", str(path), "--output-dir", str(out), "--k", "3"]) == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [np.nan, 1.5])
    def test_out_of_range_value_in_file_rejected(self, tmp_path, capsys, bad):
        spec = BevGridSpec(3, 2, 1, 1.0, 0.0, 0.0)
        values = np.zeros(spec.shape, dtype=np.float32)
        values[0, 1, 2] = bad
        path = tmp_path / "map.bevgrid"
        write_grid_tensor(path, spec, values, "f32")
        with pytest.raises(DataError, match="must lie in \\[0, 1\\]"):
            load_heatmap(path)
        out = tmp_path / "out"
        assert main(["probe", "--stage", str(path), "--output-dir", str(out), "--k", "3"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_out_of_range_payload_rejected(self, tmp_path):
        spec = BevGridSpec(2, 2, 1, 1.0, 0.0, 0.0)
        hm = Heatmap.zeros(spec)
        path = tmp_path / "map.bevgrid"
        save_heatmap(path, hm)
        header, blob = path.read_bytes().split(b"\n", 1)
        bad = np.full(spec.shape, 2.0, dtype="<f4").tobytes()
        path.write_bytes(header + b"\n" + bad)
        with pytest.raises(DataError):
            load_heatmap(path)
