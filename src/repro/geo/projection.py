"""Map projections used by the renderer and vectorized distance kernels.

The city-scale views in CrowdWeb use a local equirectangular projection:
good enough at ~40 km extents, trivially invertible, and fast to vectorize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .bbox import BoundingBox
from .point import EARTH_RADIUS_M, GeoPoint

__all__ = [
    "EquirectangularProjection",
    "ScreenProjection",
    "equirectangular_to_many_m",
    "haversine_matrix_m",
    "pairwise_haversine_m",
]

_DEG2RAD = math.pi / 180.0


@dataclass(frozen=True)
class EquirectangularProjection:
    """Project lat/lon onto a local tangent plane in meters.

    The projection is centered on ``origin``; x grows east, y grows north.
    """

    origin: GeoPoint

    def forward(self, lat: float, lon: float) -> Tuple[float, float]:
        """(lat, lon) → (x_m, y_m) relative to the origin."""
        cos_phi0 = math.cos(self.origin.lat * _DEG2RAD)
        x = (lon - self.origin.lon) * _DEG2RAD * cos_phi0 * EARTH_RADIUS_M
        y = (lat - self.origin.lat) * _DEG2RAD * EARTH_RADIUS_M
        return x, y

    def inverse(self, x_m: float, y_m: float) -> Tuple[float, float]:
        """(x_m, y_m) → (lat, lon)."""
        cos_phi0 = math.cos(self.origin.lat * _DEG2RAD)
        lat = self.origin.lat + (y_m / EARTH_RADIUS_M) / _DEG2RAD
        lon = self.origin.lon + (x_m / (EARTH_RADIUS_M * cos_phi0)) / _DEG2RAD
        return lat, lon

    def forward_arrays(self, lats: np.ndarray, lons: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`forward` for numpy arrays."""
        cos_phi0 = math.cos(self.origin.lat * _DEG2RAD)
        x = (np.asarray(lons, dtype=float) - self.origin.lon) * _DEG2RAD * cos_phi0 * EARTH_RADIUS_M
        y = (np.asarray(lats, dtype=float) - self.origin.lat) * _DEG2RAD * EARTH_RADIUS_M
        return x, y


@dataclass(frozen=True)
class ScreenProjection:
    """Map a :class:`BoundingBox` onto a pixel viewport.

    Latitude increases northward but pixel y grows downward, so y is flipped.
    The aspect ratio is *not* preserved automatically; callers that want
    square meters should size the viewport from ``bbox.width_m/height_m``.
    """

    bbox: BoundingBox
    width_px: float
    height_px: float
    padding_px: float = 0.0

    def __post_init__(self) -> None:
        if self.width_px <= 0 or self.height_px <= 0:
            raise ValueError("viewport dimensions must be positive")
        if self.padding_px < 0 or 2 * self.padding_px >= min(self.width_px, self.height_px):
            raise ValueError("padding must be non-negative and smaller than half the viewport")

    def to_screen(self, lat: float, lon: float) -> Tuple[float, float]:
        """(lat, lon) → (x_px, y_px); points outside the bbox land outside the viewport."""
        inner_w = self.width_px - 2 * self.padding_px
        inner_h = self.height_px - 2 * self.padding_px
        lon_span = self.bbox.lon_span or 1e-12
        lat_span = self.bbox.lat_span or 1e-12
        fx = (lon - self.bbox.min_lon) / lon_span
        fy = (lat - self.bbox.min_lat) / lat_span
        return self.padding_px + fx * inner_w, self.padding_px + (1.0 - fy) * inner_h

    def to_geo(self, x_px: float, y_px: float) -> Tuple[float, float]:
        """(x_px, y_px) → (lat, lon); inverse of :meth:`to_screen`."""
        inner_w = self.width_px - 2 * self.padding_px
        inner_h = self.height_px - 2 * self.padding_px
        fx = (x_px - self.padding_px) / (inner_w or 1e-12)
        fy = 1.0 - (y_px - self.padding_px) / (inner_h or 1e-12)
        lat = self.bbox.min_lat + fy * self.bbox.lat_span
        lon = self.bbox.min_lon + fx * self.bbox.lon_span
        return lat, lon


def equirectangular_to_many_m(
    lat: float, lon: float, lats: np.ndarray, lons: np.ndarray
) -> np.ndarray:
    """:func:`~repro.geo.point.equirectangular_m` from one point to each of many.

    Element ``i`` is ``equirectangular_m(lat, lon, lats[i], lons[i])``, term by
    term, so ranking by it ranks as the scalar function does.
    """
    mean_phi = (lat + lats) * 0.5 * _DEG2RAD
    x = (lons - lon) * _DEG2RAD * np.cos(mean_phi)
    y = (lats - lat) * _DEG2RAD
    return EARTH_RADIUS_M * np.hypot(x, y)


def haversine_matrix_m(
    lats1: np.ndarray, lons1: np.ndarray, lats2: np.ndarray, lons2: np.ndarray
) -> np.ndarray:
    """Full (n, m) haversine distance matrix in meters between two point sets."""
    phi1 = np.asarray(lats1, dtype=float)[:, None] * _DEG2RAD
    phi2 = np.asarray(lats2, dtype=float)[None, :] * _DEG2RAD
    dphi = phi2 - phi1
    dlam = (np.asarray(lons2, dtype=float)[None, :] - np.asarray(lons1, dtype=float)[:, None]) * _DEG2RAD
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    np.clip(a, 0.0, 1.0, out=a)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(a))


def pairwise_haversine_m(lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Symmetric (n, n) haversine distance matrix of one point set."""
    return haversine_matrix_m(lats, lons, lats, lons)
