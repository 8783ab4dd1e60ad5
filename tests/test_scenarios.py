import json
import math

import numpy as np
import pytest

from affinevis.errors import (
    AffineVisError,
    NotContractiveError,
    ParseError,
    SingularInputError,
    UnknownScenarioError,
)
from affinevis import scenarios
from affinevis.linalg2 import AffineMap2, Mat2, ProjLine
from affinevis.regularity import Cone
from affinevis.report import RunReport
from affinevis.scenarios import (
    cantor_cross_segment,
    harmonic_cell_count_1d,
    harmonic_gap,
    harmonic_product_sample,
    harmonic_sums,
    load_ifs,
    scenario,
    scenario_names,
)
from affinevis.symbolic import IFS

LOG32 = math.log(2) / math.log(3)


def expected_values(name):
    return {ev.name: ev.value for ev in scenario(name).expected}


def harmonic_points(k_max):
    """{0} and the reciprocal partial sums down to index k_max, on the line:
    the truncated set whose cell counts ``harmonic_cell_count_1d`` gives."""
    s = harmonic_sums(k_max)
    return np.concatenate([[0.0], 1.0 / s[::-1]])


class TestScenarioRegistry:
    def test_names(self):
        assert scenario_names() == ["carpet-5.1", "harmonic-5.2", "positive-cone"]

    def test_unknown(self):
        with pytest.raises(UnknownScenarioError):
            scenario("nope")

    def test_carpet_maps(self):
        expected = {
            "carpet-5.1": [np.diag([1 / 3, 1 / 2])] * 3,
            "positive-cone": [
                np.array([[2 / 5, 1 / 5], [1 / 5, 1 / 5]]),
                np.array([[3 / 5, 1 / 5], [2 / 5, 1 / 5]]),
            ],
        }
        for name, mats in expected.items():
            ifs = scenario(name).build_ifs()
            assert ifs.kappa == len(mats)
            for f, m in zip(ifs.maps, mats):
                assert f.linear.as_array() == pytest.approx(m)

    def test_point_set_is_not_ifs_backed(self):
        with pytest.raises(AffineVisError, match="not IFS-backed"):
            scenario("harmonic-5.2").build_ifs()

    @pytest.mark.parametrize("name", scenario_names())
    def test_every_entry_has_battery_and_source(self, name):
        spec = scenario(name)
        assert spec.name == name
        assert callable(spec.battery)
        if spec.build is None:
            with pytest.raises(AffineVisError, match="not IFS-backed"):
                spec.build_ifs()
        else:
            assert spec.build_ifs().kappa >= 1

    def test_carpet_expected_values(self):
        ev = expected_values("carpet-5.1")
        assert ev["hausdorff_dimension"] == pytest.approx(math.log2(2.0**LOG32 + 1.0))
        assert ev["hausdorff_dimension"] == pytest.approx(1.3497, abs=1e-4)
        assert ev["assouad_dimension"] == pytest.approx(1.6309, abs=1e-4)
        assert ev["box_dimension"] == pytest.approx(1.3691, abs=1e-4)

    def test_harmonic_expected(self):
        ev = expected_values("harmonic-5.2")
        assert ev["box_dimension_A"] == 1.0
        assert ev["box_dimension_K"] == 2.0

    def test_sources_labeled(self):
        for name in scenario_names():
            for ev in scenario(name).expected:
                assert ev.source in {"closed-form", "known-value", "measured"}


class TestTangentAssertions:
    def test_empty_family_fails_the_kakeya_assertion(self):
        # a similarity keeps every rectangle at h = 1 / n: no family with
        # h > 2 to extract from, a failed assertion and not a ValueError
        f = lambda t: AffineMap2(Mat2.diag(0.4, 0.4), t)
        ifs = IFS((f((0.0, 0.0)), f((0.6, 0.0))))
        report = RunReport("scenario", {})
        scenarios._tangent_assertions(report, ifs, (1,), [Cone(ProjLine(0.5), 0.1)])
        kakeya = report.assertions[-1]
        assert kakeya["name"] == "kakeya-directions-in-cover"
        assert not kakeya["passed"]
        assert kakeya["detail"].startswith("0 rectangles with h > 2")


class TestHarmonicSet:
    def test_sums(self):
        s = harmonic_sums(4)
        assert s[-1] == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)

    def test_points_sorted_with_zero(self):
        pts = harmonic_points(50)
        assert pts[0] == 0.0
        assert np.all(np.diff(pts) > 0)
        assert pts[-1] == 1.0

    @pytest.mark.parametrize("n", [100, 1000, 10_000])
    def test_cell_count_tracks_gap_scaling(self, n):
        s = harmonic_sums(n + 1)
        dn = harmonic_gap(n)
        target = (1.0 / dn) * (1.0 / s[n - 1])
        count = harmonic_cell_count_1d(n)
        assert target / 4 <= count <= target * 4

    def test_truncated_enumeration_agrees_where_it_can(self):
        # direct enumeration of the truncated set matches the analytic count
        # once the truncation covers the whole gap range
        n = 100
        dn = harmonic_gap(n)
        k_max = 200_000
        pts = harmonic_points(k_max)
        cells = np.unique(np.floor(pts / dn + 1e-9).astype(np.int64))
        analytic = harmonic_cell_count_1d(n)
        # truncation misses only cells below 1/S_kmax
        s_kmax = harmonic_sums(k_max)[-1]
        missing_bound = (1.0 / s_kmax) / dn + 1
        assert analytic - cells.size <= missing_bound

    def test_sample_contains_axes(self):
        cloud = harmonic_product_sample()
        pts = cloud.points
        assert (pts[:, 0] == 0).sum() == 71
        assert len(cloud) == 71 * 71


class TestCantorCross:
    def test_shape(self):
        cloud = cantor_cross_segment(4)
        xs = np.unique(cloud.points[:, 0])
        assert xs.size == 16
        ys = np.unique(cloud.points[:, 1])
        assert ys.size == 3**4 + 1


def meshgrid_points(xs, ys):
    """The product grid by ``meshgrid`` and a column stack: the bit and
    order oracle of the builders' broadcast fill."""
    xx, yy = np.meshgrid(xs, ys)
    return np.stack([xx.ravel(), yy.ravel()], axis=1)


def same_points(got, want):
    return got.shape == want.shape and got.flags.c_contiguous and got.tobytes() == want.tobytes()


class TestProductGrid:
    @pytest.mark.parametrize("depth", range(8))
    def test_cantor_cross_matches_meshgrid(self, depth):
        xs = np.array([0.0])
        for _ in range(depth):
            xs = np.concatenate([xs / 3.0, xs / 3.0 + 2.0 / 3.0])
        step = 3.0**-depth
        ys = np.arange(0.0, 1.0 + step / 2, step)
        cloud = cantor_cross_segment(depth)
        assert same_points(cloud.points, meshgrid_points(np.sort(xs), ys))
        assert cloud.resolution == step

    def test_harmonic_sample_matches_meshgrid(self):
        a = np.concatenate([[0.0], 1.0 / harmonic_sums(70)])
        assert same_points(harmonic_product_sample().points, meshgrid_points(a, a))


class TestLoadIFS(object):
    def write(self, tmp_path, payload):
        p = tmp_path / "ifs.json"
        p.write_text(json.dumps(payload))
        return p

    def test_carpet_roundtrip(self, tmp_path):
        cfg = {
            "maps": [
                {"a": [[1 / 3, 0.0], [0.0, 0.5]], "t": [0.0, 0.0]},
                {"a": [[1 / 3, 0.0], [0.0, 0.5]], "t": [1 / 3, 0.5]},
                {"a": [[1 / 3, 0.0], [0.0, 0.5]], "t": [2 / 3, 0.0]},
            ]
        }
        ifs = load_ifs(self.write(tmp_path, cfg))
        assert ifs.kappa == 3
        assert ifs.maps[2].translation == pytest.approx((2 / 3, 0.0))

    def test_singular_rejected(self, tmp_path):
        cfg = {"maps": [{"a": [[0.5, 0.5], [0.5, 0.5]], "t": [0, 0]}]}
        with pytest.raises(SingularInputError):
            load_ifs(self.write(tmp_path, cfg))

    def test_expansive_rejected(self, tmp_path):
        cfg = {"maps": [{"a": [[1.2, 0.0], [0.0, 0.5]], "t": [0, 0]}]}
        with pytest.raises(NotContractiveError):
            load_ifs(self.write(tmp_path, cfg))

    def test_malformed_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            load_ifs(p)
        with pytest.raises(ParseError):
            load_ifs(self.write(tmp_path, {"maps": []}))
        with pytest.raises(ParseError):
            load_ifs(self.write(tmp_path, {"maps": [{"a": [[1, 0]], "t": [0, 0]}]}))
