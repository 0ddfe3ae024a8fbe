"""Synthetic city layout: neighborhoods and venues.

Venues cluster around neighborhood hotspots (a Gaussian scatter per
neighborhood), with category mixes that differ by neighborhood character —
business districts are office/eatery-heavy, residential areas are
home/grocery-heavy — so that simulated commutes traverse the city the way
real ones do.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...geo import BoundingBox, GeoPoint, equirectangular_to_many_m
from ...taxonomy import CategoryTree, build_default_taxonomy
from ..records import Venue

__all__ = ["Neighborhood", "SyntheticCity", "build_city"]

#: Neighborhood character → sampling weight of each root category.
_CHARACTER_MIX: Dict[str, Dict[str, float]] = {
    "downtown": {
        "Eatery": 0.26, "Shops": 0.18, "Work": 0.22, "Residence": 0.04,
        "Education": 0.03, "Transport": 0.08, "Entertainment": 0.08,
        "Nightlife": 0.08, "Outdoors": 0.03,
    },
    "residential": {
        "Eatery": 0.16, "Shops": 0.20, "Work": 0.05, "Residence": 0.30,
        "Education": 0.06, "Transport": 0.07, "Entertainment": 0.04,
        "Nightlife": 0.03, "Outdoors": 0.09,
    },
    "campus": {
        "Eatery": 0.20, "Shops": 0.08, "Work": 0.06, "Residence": 0.14,
        "Education": 0.30, "Transport": 0.06, "Entertainment": 0.06,
        "Nightlife": 0.05, "Outdoors": 0.05,
    },
    "entertainment": {
        "Eatery": 0.24, "Shops": 0.12, "Work": 0.05, "Residence": 0.06,
        "Education": 0.02, "Transport": 0.07, "Entertainment": 0.22,
        "Nightlife": 0.17, "Outdoors": 0.05,
    },
}

_CHARACTERS = tuple(_CHARACTER_MIX)

def _choice_cdf(p: np.ndarray) -> List[float]:
    """The CDF ``Generator.choice(len(p), p=p)`` searches, as a list.

    ``choice`` draws one ``rng.random()`` and returns
    ``searchsorted(cdf, u, side="right")``, so ``bisect_right(cdf, rng.random())``
    over this list draws the same index and leaves the same stream behind.
    """
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf.tolist()


def _coordinates(venues: Sequence[Venue]) -> np.ndarray:
    return np.array([(v.lat, v.lon) for v in venues], dtype=float).reshape(-1, 2)


@dataclass(frozen=True)
class Neighborhood:
    """A venue hotspot with a land-use character."""

    neighborhood_id: int
    center: GeoPoint
    character: str
    sigma_m: float


class SyntheticCity:
    """The generated city: neighborhoods, venues, and per-category venue pools."""

    def __init__(
        self,
        bbox: BoundingBox,
        neighborhoods: Sequence[Neighborhood],
        venues: Sequence[Venue],
        taxonomy: CategoryTree,
    ) -> None:
        self.bbox = bbox
        self.neighborhoods = tuple(neighborhoods)
        self.venues = tuple(venues)
        self.taxonomy = taxonomy
        self.venues_by_id: Dict[str, Venue] = {v.venue_id: v for v in venues}
        self._by_leaf: Dict[str, List[Venue]] = {}
        self._by_root: Dict[str, List[Venue]] = {}
        for v in venues:
            self._by_leaf.setdefault(v.category_name, []).append(v)
            root = taxonomy.root_of(v.category_id).name
            self._by_root.setdefault(root, []).append(v)
        #: pool name → ``(n, 2)`` array of its venues' ``(lat, lon)``, in pool order.
        self._leaf_coords = {name: _coordinates(pool) for name, pool in self._by_leaf.items()}
        self._root_coords = {name: _coordinates(pool) for name, pool in self._by_root.items()}

    def venues_of_leaf(self, leaf_name: str) -> List[Venue]:
        """All venues of one leaf category (empty list if none exist)."""
        return list(self._by_leaf.get(leaf_name, ()))

    def venues_of_root(self, root_name: str) -> List[Venue]:
        """All venues under one root category."""
        return list(self._by_root.get(root_name, ()))

    def nearest_of_root(self, point: GeoPoint, root_name: str, k: int = 8) -> List[Venue]:
        """The ``k`` venues of a root category nearest to ``point``."""
        return _nearest(self._by_root.get(root_name), self._root_coords.get(root_name), point, k)

    def nearest_of_leaf(self, point: GeoPoint, leaf_name: str, k: int = 8) -> List[Venue]:
        """The ``k`` venues of a leaf category nearest to ``point``."""
        return _nearest(self._by_leaf.get(leaf_name), self._leaf_coords.get(leaf_name), point, k)


def _nearest(
    pool: Optional[Sequence[Venue]], coords: Optional[np.ndarray], point: GeoPoint, k: int
) -> List[Venue]:
    """``sorted(pool, key=point.fast_distance_to)[:k]`` over the pool's coordinate array.

    The sort is stable, so ties keep pool order as ``sorted`` does.
    """
    if not pool:
        return []
    distance = equirectangular_to_many_m(point.lat, point.lon, coords[:, 0], coords[:, 1])
    return [pool[i] for i in np.argsort(distance, kind="stable")[:k].tolist()]


def _scatter_around(
    rng: np.random.Generator, center: GeoPoint, sigma_m: float, bbox: BoundingBox
) -> GeoPoint:
    """One Gaussian-scattered point near ``center``, clamped into ``bbox``."""
    # ~111 km per degree latitude; correct longitude by cos(lat).
    dlat = rng.normal(0.0, sigma_m) / 111_320.0
    dlon = rng.normal(0.0, sigma_m) / (111_320.0 * max(np.cos(np.radians(center.lat)), 1e-6))
    lat = float(np.clip(center.lat + dlat, bbox.min_lat, bbox.max_lat))
    lon = float(np.clip(center.lon + dlon, bbox.min_lon, bbox.max_lon))
    return GeoPoint(lat, lon)


def build_city(
    bbox: BoundingBox,
    n_neighborhoods: int,
    n_venues: int,
    sigma_m: float,
    rng: np.random.Generator,
    taxonomy: CategoryTree = None,
) -> SyntheticCity:
    """Lay out a deterministic synthetic city.

    Neighborhood centers are sampled uniformly in a margin-inset box so their
    venue scatter stays inside the study area; characters rotate through the
    four land-use mixes with a bias toward residential (cities have more
    housing than downtowns).
    """
    taxonomy = taxonomy or build_default_taxonomy()
    inset = bbox.expand(-0.02) if bbox.lat_span > 0.08 else bbox
    neighborhoods = []
    character_cycle = ("downtown", "residential", "residential", "campus",
                      "entertainment", "residential")
    for i in range(n_neighborhoods):
        center = GeoPoint(
            float(rng.uniform(inset.min_lat, inset.max_lat)),
            float(rng.uniform(inset.min_lon, inset.max_lon)),
        )
        neighborhoods.append(
            Neighborhood(
                neighborhood_id=i,
                center=center,
                character=character_cycle[i % len(character_cycle)],
                sigma_m=sigma_m,
            )
        )

    leaf_by_root: Dict[str, List] = {
        root.name: [c for c in taxonomy.descendants(root.category_id) if c.is_leaf]
        for root in taxonomy.roots()
    }
    root_names = list(_CHARACTER_MIX["downtown"])

    venues: List[Venue] = []
    # Venues are assigned to neighborhoods proportionally to a per-
    # neighborhood size weight, so some hotspots are much denser than others.
    size_weights = rng.dirichlet(np.full(n_neighborhoods, 2.0))
    venue_counts = np.maximum(1, np.round(size_weights * n_venues).astype(int))
    serial = 0
    for hood, count in zip(neighborhoods, venue_counts):
        mix = _CHARACTER_MIX[hood.character]
        weights = np.array([mix[r] for r in root_names])
        cdf = _choice_cdf(weights / weights.sum())
        for _ in range(int(count)):
            root = root_names[bisect.bisect_right(cdf, rng.random())]
            leaves = leaf_by_root[root]
            leaf = leaves[int(rng.integers(len(leaves)))]
            location = _scatter_around(rng, hood.center, hood.sigma_m, bbox)
            venue_id = f"v{serial:05d}"
            venues.append(
                Venue(
                    venue_id=venue_id,
                    name=f"{leaf.name} #{serial:05d}",
                    category_id=leaf.category_id,
                    category_name=leaf.name,
                    location=location,
                )
            )
            serial += 1

    return SyntheticCity(bbox, neighborhoods, venues, taxonomy)
