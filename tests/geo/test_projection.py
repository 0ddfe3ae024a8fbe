"""Tests for projections and vectorized distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import (
    BoundingBox,
    EquirectangularProjection,
    GeoPoint,
    ScreenProjection,
    equirectangular_m,
    equirectangular_to_many_m,
    haversine_m,
    haversine_matrix_m,
    pairwise_haversine_m,
)


class TestEquirectangular:
    def setup_method(self):
        self.proj = EquirectangularProjection(GeoPoint(40.7, -74.0))

    def test_origin_maps_to_zero(self):
        assert self.proj.forward(40.7, -74.0) == (0.0, 0.0)

    def test_north_is_positive_y(self):
        _, y = self.proj.forward(40.8, -74.0)
        assert y > 0

    def test_east_is_positive_x(self):
        x, _ = self.proj.forward(40.7, -73.9)
        assert x > 0

    @given(st.floats(min_value=40.5, max_value=40.9),
           st.floats(min_value=-74.2, max_value=-73.8))
    @settings(max_examples=50)
    def test_roundtrip(self, lat, lon):
        x, y = self.proj.forward(lat, lon)
        lat2, lon2 = self.proj.inverse(x, y)
        assert lat2 == pytest.approx(lat, abs=1e-9)
        assert lon2 == pytest.approx(lon, abs=1e-9)

    def test_distance_preserved_locally(self):
        x, y = self.proj.forward(40.71, -74.01)
        planar = (x**2 + y**2) ** 0.5
        true = haversine_m(40.7, -74.0, 40.71, -74.01)
        assert planar == pytest.approx(true, rel=1e-3)

    def test_forward_arrays_matches_scalar(self):
        lats = np.array([40.71, 40.75])
        lons = np.array([-74.01, -73.95])
        xs, ys = self.proj.forward_arrays(lats, lons)
        for i in range(2):
            x, y = self.proj.forward(lats[i], lons[i])
            assert xs[i] == pytest.approx(x)
            assert ys[i] == pytest.approx(y)


class TestScreenProjection:
    def setup_method(self):
        self.bbox = BoundingBox(40.0, -75.0, 41.0, -74.0)
        self.proj = ScreenProjection(self.bbox, 800, 600, padding_px=10)

    def test_corners(self):
        # North-west corner is top-left (inside padding).
        x, y = self.proj.to_screen(41.0, -75.0)
        assert (x, y) == (10.0, 10.0)
        x, y = self.proj.to_screen(40.0, -74.0)
        assert (x, y) == (790.0, 590.0)

    def test_roundtrip(self):
        lat, lon = self.proj.to_geo(*self.proj.to_screen(40.42, -74.37))
        assert lat == pytest.approx(40.42, abs=1e-9)
        assert lon == pytest.approx(-74.37, abs=1e-9)

    def test_invalid_dimensions_raise(self):
        with pytest.raises(ValueError):
            ScreenProjection(self.bbox, 0, 100)
        with pytest.raises(ValueError):
            ScreenProjection(self.bbox, 100, 100, padding_px=60)


class TestVectorizedHaversine:
    def test_matches_scalar(self):
        lats1 = np.array([40.7, 40.8])
        lons1 = np.array([-74.0, -73.9])
        lats2 = np.array([40.75, 40.85, 40.9])
        lons2 = np.array([-74.05, -73.85, -73.8])
        matrix = haversine_matrix_m(lats1, lons1, lats2, lons2)
        assert matrix.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert matrix[i, j] == pytest.approx(
                    haversine_m(lats1[i], lons1[i], lats2[j], lons2[j]), rel=1e-9
                )

    def test_pairwise_symmetric_zero_diagonal(self):
        lats = np.array([40.7, 40.8, 40.9])
        lons = np.array([-74.0, -73.9, -73.8])
        matrix = pairwise_haversine_m(lats, lons)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_equirectangular_to_many_matches_scalar(self):
        rng = np.random.default_rng(4)
        lats, lons = rng.uniform(40.5, 40.9, 500), rng.uniform(-74.3, -73.7, 500)
        distances = equirectangular_to_many_m(40.7, -74.0, lats, lons)
        for d, lat, lon in zip(distances, lats, lons):
            assert d == pytest.approx(equirectangular_m(40.7, -74.0, lat, lon), rel=1e-14)
