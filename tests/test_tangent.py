import math

import numpy as np
import pytest

from affinevis.errors import BudgetError, EmptyCylinderViewError, NoExitError
from affinevis.linalg2 import ProjLine, proj_distance
from affinevis.regularity import orientation_cover
from affinevis.symbolic import attractor_cloud, cylinder
from affinevis.tangent import (
    ApproxRect,
    TangentFrame,
    approx_rect,
    kakeya_extract,
    magnify,
    tangent_sequence,
)
from affinevis.visibility import visible_envelope
from affinevis.linalg2 import Direction


def hausdorff_directed(a: np.ndarray, b: np.ndarray) -> float:
    d = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
    return float(d.min(axis=1).max())


class TestMagnify:
    def test_identity_frame(self, carpet):
        cloud = attractor_cloud(carpet, 2.0**-5)
        out = magnify(cloud, TangentFrame((0.0, 0.0), 1.0))
        inside = np.hypot(*cloud.points.T) <= 1.0
        assert len(out) == int(inside.sum())

    def test_center_maps_to_origin(self):
        from affinevis.symbolic import PointCloud

        cloud = PointCloud(np.array([[0.3, 0.7]]), 0.01)
        out = magnify(cloud, TangentFrame((0.3, 0.7), 0.25))
        assert out.points[0] == pytest.approx([0.0, 0.0])
        assert out.resolution == pytest.approx(0.04)

    def test_self_affine_window(self, carpet):
        # the magnified window at the first-map fixed point contains the
        # rescaled first-map cylinder
        n = 4
        cloud = attractor_cloud(carpet, 2.0**-9)
        frame = TangentFrame((0.0, 0.0), 2.0**-n)
        magnified = magnify(cloud, frame)
        cyl = cylinder(carpet, (1,) * n)
        rerooted = frame(cyl.map(cloud.points))
        rerooted = rerooted[np.hypot(*rerooted.T) <= 1.0]
        assert hausdorff_directed(rerooted, magnified.points) <= 2.0**-9 * 2**n * 3


class TestApproxRect:
    def test_carpet_first_map_words(self, carpet):
        delta = 0.01
        frame = TangentFrame((0.0, 0.0), 1.0)
        cloud = attractor_cloud(carpet, delta)
        for n in (1, 3, 5):
            rect = approx_rect(cylinder(carpet, (1,) * n), frame, cloud)
            assert rect.orientation.angle == pytest.approx(math.pi / 2)
            assert rect.h == pytest.approx(2.0**-n, abs=2 * delta)
            assert rect.v == pytest.approx(3.0**-n, abs=2 * delta)
            assert rect.h >= rect.v > 0

    def test_empty_view(self, carpet):
        frame = TangentFrame((0.0, 0.0), 2.0**-8)
        with pytest.raises(EmptyCylinderViewError):
            # cylinder near x = 1
            approx_rect(cylinder(carpet, (3, 3)), frame, attractor_cloud(carpet, 0.01))

    def test_ratio_grows_by_tau(self, carpet):
        frame = TangentFrame((0.0, 0.0), 1.0)
        cloud = attractor_cloud(carpet, 0.01)
        prev = approx_rect(cylinder(carpet, (1,) * 2), frame, cloud)
        for n in (3, 4, 5):
            cur = approx_rect(cylinder(carpet, (1,) * n), frame, cloud)
            growth = (cur.h / cur.v) / (prev.h / prev.v)
            assert growth >= 1.5 * (1 - 0.05)
            prev = cur

    def test_rect_stable_under_finer_delta(self, carpet):
        frame = TangentFrame((0.0, 0.0), 1.0)
        cyl = cylinder(carpet, (1, 2))
        r1 = approx_rect(cyl, frame, attractor_cloud(carpet, 0.02))
        r2 = approx_rect(cyl, frame, attractor_cloud(carpet, 0.005))
        assert abs(r1.h - r2.h) <= 2 * 0.02
        assert abs(r1.v - r2.v) <= 2 * 0.02


class TestTangentSequence:
    def test_single_step(self, carpet):
        seq = tangent_sequence(carpet, (1,), 1)
        assert len(seq) == 1

    def test_carpet_trends(self, carpet):
        seq = tangent_sequence(carpet, (1,), 12)
        hs = [rect.h for _, rect in seq]
        vs = [rect.v for _, rect in seq]
        tau = 1.5
        for n in range(1, 13):
            assert vs[n - 1] <= 3 / n
        for n in range(4, 13):
            assert hs[n - 1] >= tau**n / (3 * n)
        # monotone tails
        for a, b in zip(hs[3:], hs[4:]):
            assert b > a
        for a, b in zip(vs[3:], vs[4:]):
            assert b < a

    def test_positive_pair_monotone_tails(self, positive_pair):
        # constant stream: the reversed products converge, so the short-side
        # extents settle; alternating streams oscillate with prefix parity
        seq = tangent_sequence(positive_pair, (1,), 12)
        hs = [rect.h for _, rect in seq]
        vs = [rect.v for _, rect in seq]
        for a, b in zip(hs[3:], hs[4:]):
            assert b > a
        for a, b in zip(vs[3:], vs[4:]):
            assert b < a

    def test_positive_pair_alternating_h_grows(self, positive_pair):
        seq = tangent_sequence(positive_pair, (1, 2), 12)
        hs = [rect.h for _, rect in seq]
        for a, b in zip(hs[3:], hs[4:]):
            assert b > a

    def test_frames_shrink(self, carpet):
        seq = tangent_sequence(carpet, (2,), 10)
        scales = [f.scale for f, _ in seq]
        assert scales[-1] < scales[3] < 1.0 + 1e-12

    @pytest.mark.parametrize(
        "name, stream, last",
        [("positive_pair", (1,), 15), ("positive_pair", (1, 2), 12), ("carpet", (2,), 30)],
    )
    def test_stops_past_float_resolution(self, request, name, stream, last):
        # the short side v * r_n falls below 2^-48 of the cylinder's largest
        # |coordinate| one step past ``last``; there n * v has drifted by
        # more than 1% (positive-cone, stream 1: 0.1261 up to n = 13, 0.1166
        # at 16, 32.6 at 20), and deeper the frames degenerate
        ifs = request.getfixturevalue(name)
        seq = tangent_sequence(ifs, stream, last)
        assert len(seq) == last
        with pytest.raises(BudgetError, match=f"stops at n = {last + 1}:"):
            tangent_sequence(ifs, stream, last + 1)


def exit_rect(phi):
    """A long rectangle whose one short side clear of the unit ball lies in
    direction ``phi``."""
    e = np.array([math.cos(phi), math.sin(phi)])
    return ApproxRect(2.6 * e, ProjLine(phi), 7.0, 0.1, (1,))


class TestKakeyaExtract:
    def test_horizontal_rect_right_exit(self):
        rect = ApproxRect(np.array([0.0, 0.0]), ProjLine(0.0), 10.0, 0.1, (1,))
        k = kakeya_extract([rect])
        assert k.thetas[0] == pytest.approx(0.0, abs=1e-12)

    def test_shifted_rect_left_exit(self):
        # shifted so only the left short side clears the unit ball
        rect = ApproxRect(np.array([-2.6, 0.0]), ProjLine(0.0), 7.0, 0.1, (1,))
        k = kakeya_extract([rect])
        assert k.thetas[0] == pytest.approx(math.pi)

    def test_short_rect_rejected(self):
        rect = ApproxRect(np.array([0.0, 0.0]), ProjLine(0.0), 1.5, 0.1, (1,))
        with pytest.raises(NoExitError):
            kakeya_extract([rect])

    def test_directions_cluster_across_angle_zero(self):
        # exits 0.007 rad apart across angle 0 snap to their circular mean
        rects = [exit_rect(2.0 * math.pi - 0.004), exit_rect(0.003)]
        k = kakeya_extract(rects)
        assert k.thetas == pytest.approx([2.0 * math.pi - 0.0005] * 2, abs=1e-12)

    def test_carpet_sequence_carriers_vertical(self, carpet):
        seq = tangent_sequence(carpet, (2,), 12)
        rects = [rect for _, rect in seq if rect.h > 2.0]
        assert rects
        k = kakeya_extract(rects)
        for theta in k.thetas:
            assert proj_distance(Direction(theta).carrier(), ProjLine(math.pi / 2)) < 1e-6

    def test_carriers_inside_orientation_cover(self, positive_pair):
        cover = orientation_cover(positive_pair, eps=1e-2)
        seq = tangent_sequence(positive_pair, (1, 2), 12)
        rects = [rect for _, rect in seq if rect.h > 2.0]
        assert rects
        k = kakeya_extract(rects)
        for theta in k.thetas:
            carrier = Direction(theta).carrier()
            assert any(c.line_distance(carrier) <= 2e-2 for c in cover)

    def test_envelope_accepts_extracted_set(self, positive_pair):
        # the direction set stays angularly separated from a sight line
        # chosen off the cover, so the envelope decomposition succeeds
        seq = tangent_sequence(positive_pair, (1, 2), 10)
        rects = [rect for _, rect in seq if rect.h > 2.0]
        k = kakeya_extract(rects)
        envs, exceptional = visible_envelope(k, Direction(-math.pi / 2))
        assert envs
        for env in envs:
            assert env.max_violation() <= 1e-9
