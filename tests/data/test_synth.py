"""Tests for the synthetic GTSM generator (the dataset substitution)."""

import hashlib
from datetime import date, timedelta

import pytest

from repro.data import SMALL_CONFIG, SynthConfig, dataset_stats, generate, write_foursquare_tsv
from repro.data.synth import CityEvent, build_agents, build_city, simulate_traces, small_dataset
from repro.data.synth.generator import _draw_preference, _preference_weights
from repro.geo import GeoPoint
from repro.obs import observed
from repro.taxonomy import build_default_taxonomy

import numpy as np


class TestConfig:
    def test_defaults_valid(self):
        SynthConfig()

    @pytest.mark.parametrize("kwargs", [
        {"n_users": 0},
        {"exploration_prob": 1.5},
        {"checkin_rate_mean": 0.0},
        {"checkin_rate_clamp": (0.5, 0.2)},
        {"worker_fraction": 0.9, "student_fraction": 0.3},
        {"power_user_fraction": -0.1},
        {"monthly_seasonality": {1: 1.0}},
    ])
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(**kwargs)

    def test_end_before_start_raises(self):
        from datetime import date
        with pytest.raises(ValueError):
            SynthConfig(start_date=date(2012, 6, 1), end_date=date(2012, 4, 1))

    def test_n_days(self):
        assert SMALL_CONFIG.n_days == 76


class TestCity:
    @pytest.fixture(scope="class")
    def city(self):
        rng = np.random.default_rng(3)
        return build_city(SMALL_CONFIG.bbox, 6, 500, 800.0, rng,
                          build_default_taxonomy())

    def test_venue_count(self, city):
        assert len(city.venues) >= 450  # rounding of dirichlet shares

    def test_all_venues_inside_bbox(self, city):
        for venue in city.venues:
            assert city.bbox.contains(venue.location)

    def test_venue_categories_resolvable(self, city):
        for venue in city.venues[:50]:
            node = city.taxonomy.get(venue.category_id)
            assert node.name == venue.category_name
            assert node.is_leaf

    def test_lookup_by_root_and_leaf(self, city):
        eateries = city.venues_of_root("Eatery")
        assert eateries
        thai = city.venues_of_leaf("Thai Restaurant")
        assert all(v.category_name == "Thai Restaurant" for v in thai)

    def test_nearest_of_root_sorted(self, city):
        anchor = city.neighborhoods[0].center
        nearest = city.nearest_of_root(anchor, "Eatery", k=5)
        distances = [anchor.fast_distance_to(v.location) for v in nearest]
        assert distances == sorted(distances)

    def test_unknown_category_empty(self, city):
        assert city.venues_of_leaf("Space Elevator") == []
        assert city.nearest_of_leaf(city.neighborhoods[0].center, "Space Elevator") == []


class TestAgents:
    @pytest.fixture(scope="class")
    def world(self):
        rng = np.random.default_rng(5)
        taxonomy = build_default_taxonomy()
        city = build_city(SMALL_CONFIG.bbox, 6, 600, 800.0, rng, taxonomy)
        agents = build_agents(city, SMALL_CONFIG, rng)
        return city, agents

    def test_population_size(self, world):
        _, agents = world
        assert len(agents) == SMALL_CONFIG.n_users

    def test_personas_distributed(self, world):
        _, agents = world
        personas = {a.persona for a in agents}
        assert personas == {"worker", "student", "freelancer"}

    def test_rates_clamped(self, world):
        _, agents = world
        lo, hi = SMALL_CONFIG.checkin_rate_clamp
        assert all(lo <= a.checkin_prob <= hi for a in agents)

    def test_routines_reference_real_venues(self, world):
        city, agents = world
        for agent in agents[:20]:
            for stop in agent.weekday_routine:
                if stop.pool_kind == "fixed":
                    assert stop.target in city.venues_by_id

    def test_preference_pools_match_category(self, world):
        city, agents = world
        for agent in agents[:20]:
            for stop in agent.weekday_routine:
                if stop.pool_kind == "leaf" and stop.slot_key in agent.preferred:
                    pool = agent.preferred[stop.slot_key]
                    assert all(v.category_name == stop.target for v in pool)

    def test_weekend_vs_weekday_routine(self, world):
        _, agents = world
        agent = agents[0]
        assert agent.routine_for(0) == agent.weekday_routine
        assert agent.routine_for(6) == agent.weekend_routine


class TestGeneration:
    def test_deterministic(self):
        cfg = SynthConfig(**{**SMALL_CONFIG.__dict__, "n_users": 10})
        a = generate(cfg).dataset
        b = generate(cfg).dataset
        assert len(a) == len(b)
        assert [c.timestamp for c in a] == [c.timestamp for c in b]
        assert [c.venue_id for c in a] == [c.venue_id for c in b]

    def test_different_seed_differs(self):
        base = {**SMALL_CONFIG.__dict__, "n_users": 10}
        a = generate(SynthConfig(**{**base, "seed": 1})).dataset
        b = generate(SynthConfig(**{**base, "seed": 2})).dataset
        assert [c.venue_id for c in a] != [c.venue_id for c in b]

    def test_timestamps_inside_period(self, small_ds):
        lo, hi = small_ds.time_range()
        assert lo.date() >= SMALL_CONFIG.start_date
        # One day of slack: local-time offsets can spill into the next UTC day.
        assert (hi.date() - SMALL_CONFIG.end_date).days <= 1

    def test_sparse_like_paper(self, small_ds):
        stats = dataset_stats(small_ds)
        assert stats.is_sparse

    def test_checkins_reference_city_venues(self, small_gen):
        for record in list(small_gen.dataset)[:200]:
            venue = small_gen.city.venues_by_id[record.venue_id]
            assert venue.category_name == record.category_name

    def test_flexibility_same_slot_many_venues(self, small_gen):
        """The paper's motivation: a user's lunch slot spans multiple venues."""
        # Power users have enough records to observe the flexibility.
        busiest = max(small_gen.agents, key=lambda a: a.checkin_prob)
        records = small_gen.dataset.for_user(busiest.user_id)
        lunch = [c for c in records if 11.5 <= c.local_hour <= 13.8
                 and c.category_name == busiest.weekday_routine[3].target]
        if len(lunch) >= 10:
            assert len({c.venue_id for c in lunch}) >= 2

    def test_ground_truth_accessible(self, small_gen):
        assert small_gen.agents_by_id[small_gen.agents[0].user_id] is small_gen.agents[0]


def _tsv_sha256(dataset, tmp_path) -> str:
    """sha256 of a dataset's Foursquare TSV lines in sorted order."""
    path = tmp_path / "digest.tsv"
    write_foursquare_tsv(dataset, path)
    return hashlib.sha256(b"".join(sorted(path.read_bytes().splitlines(keepends=True)))).hexdigest()


def _traces_sha256(traces) -> str:
    digest = hashlib.sha256()
    for user_id in sorted(traces):
        for day in sorted(traces[user_id]):
            for fix in traces[user_id][day]:
                digest.update(f"{user_id}|{day}|{fix.timestamp.isoformat()}|"
                              f"{fix.lat!r}|{fix.lon!r}\n".encode())
    return digest.hexdigest()


#: Digests recorded with the generator that drew every preference venue with
#: ``rng.choice(n, p=weights)``; the generator must keep producing them.
SMALL_DATASET_SHA256 = "801637175056ad4af6b144083a3ed1d6cb77cb8999325c01130ddd94e10d36fe"
EVENT_DATASET_SHA256 = "0b0dc10c92634e5965d9028c98c5702f2173ab37301b7a6bdd4057e15b9f55c2"
TRACES_SHA256 = "fc6957690845c115269790ef650c870abe3c0a0058bf66166f13c9f746fe358d"


class TestParity:
    """Byte-identical output at a fixed seed, pinned by digest."""

    def test_small_dataset_digest(self, tmp_path):
        assert _tsv_sha256(small_dataset(7), tmp_path) == SMALL_DATASET_SHA256

    def test_event_dataset_digest(self, tmp_path):
        event = CityEvent(name="derby", day=date(2012, 5, 12), venue_category="Stadium",
                          attendance_prob=0.6)
        config = SynthConfig(**{**SMALL_CONFIG.__dict__, "events": (event,)})
        assert _tsv_sha256(generate(config).dataset, tmp_path) == EVENT_DATASET_SHA256

    def test_traces_digest(self, small_gen):
        days = [SMALL_CONFIG.start_date + timedelta(days=i) for i in range(3)]
        traces = simulate_traces(small_gen.agents[:2], small_gen.city, days, SMALL_CONFIG,
                                 seed=11)
        assert _traces_sha256(traces) == TRACES_SHA256

    def test_digest_same_with_obs_on(self, tmp_path):
        config = SynthConfig(**{**SMALL_CONFIG.__dict__, "n_users": 12})
        off = _tsv_sha256(generate(config).dataset, tmp_path)
        with observed() as o:
            on = _tsv_sha256(generate(config).dataset, tmp_path)
        names = [span.name for span in o.tracer.roots()]
        assert names == ["data.synth.city", "data.synth.agents", "data.synth.days"]
        assert on == off

    @pytest.mark.parametrize("n", range(1, 7))
    def test_preference_draw_matches_rng_choice(self, n):
        """One ``rng.random()`` per draw, so the index and the stream both match."""
        ours, theirs = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(2000):
            assert _draw_preference(ours, n) == int(theirs.choice(n, p=_preference_weights(n)))
        assert ours.random() == theirs.random()

    def test_nearest_matches_sorted_reference(self, small_gen):
        city = small_gen.city
        rng = np.random.default_rng(0)
        bbox = city.bbox
        for _ in range(200):
            anchor = GeoPoint(float(rng.uniform(bbox.min_lat, bbox.max_lat)),
                              float(rng.uniform(bbox.min_lon, bbox.max_lon)))
            k = int(rng.integers(1, 15))
            for name in ("Eatery", "Shops", "Nightlife"):
                pool = city.venues_of_root(name)
                expected = sorted(pool, key=lambda v: anchor.fast_distance_to(v.location))[:k]
                assert city.nearest_of_root(anchor, name, k=k) == expected
            for name in ("Coffee Shop", "Thai Restaurant", "Gym"):
                pool = city.venues_of_leaf(name)
                expected = sorted(pool, key=lambda v: anchor.fast_distance_to(v.location))[:k]
                assert city.nearest_of_leaf(anchor, name, k=k) == expected
