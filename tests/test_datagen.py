"""Tests for the workload generators (paper Section VII-B)."""

import numpy as np
import pytest

from repro.datagen import (
    SPACE,
    DriftingClusterStream,
    dense_cluster,
    density_ladder,
    massive_cluster,
    neuro_datasets,
    scaled_space,
    uniform_cluster,
    uniform_dataset,
)
from repro.datagen.synthetic import PAPER_DENSITY


class TestScaledSpace:
    def test_density_matches_target(self):
        s = scaled_space(200_000)
        assert 200_000 / s.volume() == pytest.approx(PAPER_DENSITY)

    def test_validation(self):
        with pytest.raises(ValueError):
            scaled_space(0)
        with pytest.raises(ValueError):
            scaled_space(100, density=0)


class TestCommonProperties:
    GENERATORS = [uniform_dataset, dense_cluster, uniform_cluster, massive_cluster]

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_count_and_ids(self, gen):
        d = gen(500, seed=1, id_offset=100)
        assert len(d) == 500
        assert d.ids[0] == 100
        assert len(np.unique(d.ids)) == 500

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_elements_inside_space(self, gen):
        space = scaled_space(1000)
        d = gen(1000, seed=2, space=space)
        assert np.all(d.boxes.lo >= np.asarray(space.lo) - 1e-9)
        assert np.all(d.boxes.hi <= np.asarray(space.hi) + 1e-9)

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_element_sides_at_most_one(self, gen):
        """Paper: "the length of each side of each box is determined
        uniform randomly between 0 and 1" (clipping can only shrink)."""
        d = gen(800, seed=3)
        assert np.all(d.boxes.extents() <= 1.0 + 1e-9)

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_deterministic(self, gen):
        d1 = gen(300, seed=7)
        d2 = gen(300, seed=7)
        assert np.array_equal(d1.boxes.lo, d2.boxes.lo)

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_seed_changes_output(self, gen):
        d1 = gen(300, seed=7)
        d2 = gen(300, seed=8)
        assert not np.array_equal(d1.boxes.lo, d2.boxes.lo)

    @pytest.mark.parametrize("gen", GENERATORS)
    def test_rejects_zero_elements(self, gen):
        with pytest.raises(ValueError):
            gen(0, seed=1)


class TestDistributionShapes:
    @staticmethod
    def _grid_occupancy(dataset, space, res=6):
        """Fraction of grid cells that contain at least one centre."""
        lo = np.asarray(space.lo)
        extent = np.asarray(space.hi) - lo
        cells = np.floor(
            (dataset.boxes.centers() - lo) / extent * res
        ).clip(0, res - 1).astype(int)
        flat = cells[:, 0] * res * res + cells[:, 1] * res + cells[:, 2]
        return len(np.unique(flat)) / res**3

    def test_uniform_fills_space(self):
        space = scaled_space(5000)
        d = uniform_dataset(5000, seed=4, space=space)
        assert self._grid_occupancy(d, space) > 0.9

    def test_massive_cluster_is_concentrated(self):
        space = scaled_space(5000)
        d = massive_cluster(5000, seed=4, space=space)
        assert self._grid_occupancy(d, space) < 0.5

    def test_dense_cluster_more_skewed_than_uniform_cluster(self):
        space = scaled_space(5000)
        dense = dense_cluster(5000, seed=5, space=space)
        wide = uniform_cluster(5000, seed=5, space=space)
        assert self._grid_occupancy(dense, space) < self._grid_occupancy(
            wide, space
        )

    def test_massive_cluster_equal_cluster_sizes(self):
        d = massive_cluster(1000, seed=6, num_clusters=5)
        # All five clusters hold exactly 200 elements by construction;
        # verify via 5-means-style assignment to the nearest of the 5
        # densest regions is overkill — instead check the generator's
        # contract through counts: 1000 divides evenly.
        assert len(d) == 1000


class TestDensityLadder:
    def test_ratio_sweep_symmetric(self):
        ladder = density_ladder(smallest=20, largest=2000, steps=5, seed=1)
        ratios = [r for _, _, r in ladder]
        assert ratios[0] == pytest.approx(1.0 / ratios[-1])
        assert ratios[len(ratios) // 2] == pytest.approx(1.0)

    def test_sizes_move_in_opposite_directions(self):
        ladder = density_ladder(smallest=20, largest=2000, steps=5, seed=1)
        sizes_a = [len(a) for a, _, _ in ladder]
        sizes_b = [len(b) for _, b, _ in ladder]
        assert sizes_a == sorted(sizes_a)
        assert sizes_b == sorted(sizes_b, reverse=True)

    def test_ids_disjoint(self):
        for a, b, _ in density_ladder(smallest=10, largest=100, steps=3):
            assert not set(a.ids.tolist()) & set(b.ids.tolist())

    def test_validation(self):
        with pytest.raises(ValueError):
            density_ladder(steps=1)
        with pytest.raises(ValueError):
            density_ladder(smallest=100, largest=10)


class TestNeuroDatasets:
    def test_split_60_40(self):
        axons, dendrites = neuro_datasets(1000, seed=1)
        assert len(axons) == 600
        assert len(dendrites) == 400

    def test_ids_disjoint(self):
        axons, dendrites = neuro_datasets(500, seed=2)
        assert not set(axons.ids.tolist()) & set(dendrites.ids.tolist())

    def test_axons_top_heavy(self):
        """Figure 3: axons predominantly at the top of the volume."""
        space = scaled_space(4000)
        axons, dendrites = neuro_datasets(4000, seed=3, space=space)
        az = axons.boxes.centers()[:, 2].mean()
        dz = dendrites.boxes.centers()[:, 2].mean()
        assert az > dz

    def test_similar_spatial_extent(self):
        """Both datasets span (most of) the same volume."""
        space = scaled_space(6000)
        axons, dendrites = neuro_datasets(6000, seed=4, space=space)
        for d in (axons, dendrites):
            mbb = d.boxes.mbb()
            for axis in range(2):  # x and y
                span = mbb.hi[axis] - mbb.lo[axis]
                assert span > 0.7 * (space.hi[axis] - space.lo[axis])

    def test_rejects_tiny_total(self):
        with pytest.raises(ValueError):
            neuro_datasets(5)

    def test_deterministic(self):
        a1, _ = neuro_datasets(300, seed=9)
        a2, _ = neuro_datasets(300, seed=9)
        assert np.array_equal(a1.boxes.lo, a2.boxes.lo)


class TestDriftingClusterStream:
    def test_current_is_the_ticks_applied_to_the_base(self):
        """The stream keeps its base and its current window, no delta
        log: replaying the deltas it emitted over the base lands on the
        current window byte for byte."""
        stream = DriftingClusterStream(400, seed=3, churn=0.1)
        deltas = list(stream.ticks(5))
        replayed = stream.base()
        for delta in deltas:
            replayed = delta.apply(replayed)
        current = stream.current
        assert len(current) == 400
        assert replayed.ids.tobytes() == current.ids.tobytes()
        assert replayed.boxes.lo.tobytes() == current.boxes.lo.tobytes()
        assert replayed.boxes.hi.tobytes() == current.boxes.hi.tobytes()
        assert replayed.fingerprint == current.fingerprint

    def test_equal_seeds_emit_equal_deltas(self):
        one = DriftingClusterStream(300, seed=8, name="s", id_offset=5_000)
        two = DriftingClusterStream(300, seed=8, name="s", id_offset=5_000)
        assert one.base().fingerprint == two.base().fingerprint
        for left, right in zip(one.ticks(3), two.ticks(3)):
            assert left.digest() == right.digest()
        assert one.current.fingerprint == two.current.fingerprint
        # Each tick retires the oldest ids, so none comes back.
        assert one.current.ids.min() >= 5_000 + 3 * 15

