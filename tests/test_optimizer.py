"""Greedy gap filling and the evolutionary layer search.

The full-budget evolution is exercised by the acceptance suite; the unit
tests here stay fast by using zero generations (warm starts only)."""
from __future__ import annotations

import math

import numpy as np
import pytest

from marcopolo import optimizer
from marcopolo.geometry import _convex_hull, certify_coverage, uncovered_faces
from marcopolo.placements import (
    CertificationError,
    LayerPlacement,
    construct_layer,
)
from marcopolo.optimizer import (
    ALG7_RHO1,
    OptimizerConfig,
    alg7_layer,
    evolve_initial,
    greedy_fill,
)
from marcopolo.optimizer import _PAIR_BLOCK, _best_chord_probe, _densify_hull
from marcopolo.verifier import probe_coefficient


class TestOptimizerConfig:
    def test_defaults(self):
        config = OptimizerConfig()
        assert config.population == 16
        assert config.generations == 40
        assert config.rho1_bounds == (0.76, 0.80)

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(population=4)
        with pytest.raises(ValueError):
            OptimizerConfig(generations=-1)
        with pytest.raises(ValueError):
            OptimizerConfig(mutation_factor=2.5)
        with pytest.raises(ValueError):
            OptimizerConfig(crossover_rate=1.5)
        with pytest.raises(ValueError):
            OptimizerConfig(rho1_bounds=(0.8, 0.76))


class TestGreedyFill:
    def test_covered_input_is_kept(self, layers):
        layer = layers["ALG3"]
        filled = greedy_fill(LayerPlacement("ALG3", layer.probes,
                                            layer.rho1, False, "disk"))
        assert filled.probes == layer.probes
        assert filled.certified

    def test_requires_schedule_base(self, layers):
        bare = LayerPlacement("ALG1", layers["ALG1"].probes, None,
                              False, "disk")
        with pytest.raises(ValueError):
            greedy_fill(bare)

    def test_impossible_budget_raises_with_partial(self):
        # at rho1 = 0.6 the probes the schedule can still add after the
        # four leading ALG4 probes have less total area than the gap
        rho1 = 0.6
        seed = construct_layer("ALG4", rho1)
        partial = LayerPlacement("ALG7", seed.probes[:4], rho1,
                                 False, "disk")
        assert optimizer._schedule_capacity(rho1, 4) < \
            uncovered_faces(partial.probes)[1]
        with pytest.raises(CertificationError) as info:
            greedy_fill(partial)
        attached = info.value.placement
        assert not attached.certified
        assert attached.probes[:4] == partial.probes
        assert not certify_coverage(attached.probes).certified_covered


class TestAlg7Layer:
    def test_beats_published_coefficient(self):
        layer = alg7_layer()
        assert layer.certified
        assert layer.rho1 == ALG7_RHO1
        c = probe_coefficient(layer)
        assert c <= 3.10
        assert c == pytest.approx(-1.0 / math.log2(ALG7_RHO1), abs=1e-9)
        # geometric schedule throughout
        for p in layer.probes:
            k = math.log(p.rho, ALG7_RHO1)
            assert abs(k - round(k)) < 1e-6


class TestEvolveInitial:
    def test_zero_generations_certifies(self):
        config = OptimizerConfig(generations=0)
        layer = evolve_initial(config)
        assert layer.certified
        # the schedule base stays inside the configured bounds, so the
        # coefficient cannot exceed the upper bound's closed form
        assert layer.rho1 <= config.rho1_bounds[1]
        assert probe_coefficient(layer) <= \
            -1.0 / math.log2(config.rho1_bounds[1]) + 1e-9

    def test_deterministic(self):
        config = OptimizerConfig(generations=0)
        a = evolve_initial(config)
        b = evolve_initial(config)
        assert a.probes == b.probes
        assert a.rho1 == b.rho1

    def test_fitness_agrees_with_greedy_fill(self):
        # the fitness runs the fill greedy_fill runs: it is below the
        # penalty iff greedy_fill certifies, with the same probes
        for vector in optimizer._structured_individuals(OptimizerConfig()):
            fit, filled = optimizer._fitness(vector)
            rho1, probes = optimizer._decode(vector)
            partial = LayerPlacement("ALG8", tuple(probes), rho1, False,
                                     "disk")
            try:
                layer = greedy_fill(partial)
            except CertificationError as err:
                layer = err.placement
            assert (fit < optimizer._PENALTY) == layer.certified
            assert tuple(filled) == layer.probes

    def test_returns_best_individuals_fill(self, monkeypatch):
        # with no generations each individual is scored once, in slot order
        scored = []
        fitness = optimizer._fitness

        def spy(vector):
            scored.append(fitness(vector))
            return scored[-1]

        monkeypatch.setattr(optimizer, "_fitness", spy)
        config = OptimizerConfig(generations=0)
        layer = evolve_initial(config)
        assert len(scored) == config.population
        fit, filled = min(scored, key=lambda pair: pair[0])
        assert fit < optimizer._PENALTY
        assert layer.probes == tuple(filled)
        assert probe_coefficient(layer) == pytest.approx(fit, abs=1e-12)


def _hull(points):
    return _convex_hull(points[:, 0], points[:, 1])


def _reference_chord_scores(hull, points, r):
    """Every candidate center with the number of points in its disk, one
    candidate at a time in (i, j, +/-) order over the hull-point pairs."""
    pts = _densify_hull(hull, r / 2.0)
    out = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            p, q = pts[i], pts[j]
            d2 = ((q - p) ** 2).sum()
            if d2 > 4.0 * r * r or d2 < 1e-18:
                continue
            mid = 0.5 * (p + q)
            lift = math.sqrt(r * r - 0.25 * d2)
            ux, uy = (q - p) / math.sqrt(d2)
            for s in (1.0, -1.0):
                cx, cy = mid[0] - s * lift * uy, mid[1] + s * lift * ux
                inside = ((points[:, 0] - cx) ** 2
                          + (points[:, 1] - cy) ** 2) <= r * r
                out.append(((cx, cy), int(inside.sum())))
    return out


def _reference_chord_probe(hull, points, r):
    best, best_score = None, 0
    for center, count in _reference_chord_scores(hull, points, r):
        if count > best_score:
            best_score, best = count, center
    return best


def _candidate_blocks(hull, r):
    """The block of pairs of each candidate of ``_reference_chord_scores``."""
    pts = _densify_hull(hull, r / 2.0)
    blocks = []
    for k, (i, j) in enumerate(zip(*np.triu_indices(len(pts), 1))):
        d2 = ((pts[j] - pts[i]) ** 2).sum()
        if 1e-18 <= d2 <= 4.0 * r * r:
            blocks += [k // _PAIR_BLOCK] * 2
    return blocks


def _blob(rng, count, x0, y0, half):
    """Points at the centers of grid cells of one size on a patch around
    (x0, y0)."""
    ix = rng.integers(-12, 12, count)
    iy = rng.integers(-8, 8, count)
    return np.column_stack([x0 + (2 * ix + 1) * half,
                            y0 + (2 * iy + 1) * half])


def _square(x, y, half):
    """The corners of a square, counterclockwise."""
    return np.array([[x - half, y - half], [x + half, y - half],
                     [x + half, y + half], [x - half, y + half]])


class TestBestChordProbe:
    @pytest.mark.parametrize("seed,many", [(0, False), (1, False), (2, True),
                                           (3, True)])
    def test_random_regions(self, seed, many):
        # with many points a scoring buffer holds few candidate rows
        rng = np.random.default_rng(seed)
        first = _blob(rng, 150, 0.1, -0.2, 2.0 ** -7)
        points = np.concatenate(
            [first, _blob(rng, 4500 if many else 60, 0.3, 0.1, 2.0 ** -8)])
        hull = _hull(first)
        # the smallest radius densifies the hull to about a hundred
        # points, several thousand pairs
        for r in (0.01, 0.05, 0.12, 0.3):
            expected = _reference_chord_probe(hull, points, r)
            got = _best_chord_probe(hull, points, r)
            assert expected is not None
            assert got == expected

    def test_tied_scores_keep_first_candidate(self):
        # four points well inside every candidate disk: each candidate
        # holds as many, so the first one must win
        half = 2.0 ** -6
        points = np.array([[sx * half, sy * half]
                           for sx in (-1, 1) for sy in (-1, 1)])
        hull, r = _square(0.0, 0.0, 2.0 * half), 0.2
        scores = [score for _, score in
                  _reference_chord_scores(hull, points, r)]
        assert scores.count(max(scores)) > 1
        assert _best_chord_probe(hull, points, r) == \
            _reference_chord_probe(hull, points, r)

    @pytest.mark.parametrize("seed", range(3))
    def test_dyadic_and_annulus_cells(self, seed):
        # grid points plus points along an arc just inside the unit
        # circle, as a face that reaches the perimeter gives
        rng = np.random.default_rng(10 + seed)
        angle = np.sort(rng.uniform(-0.6, 0.6, 400))
        ring = np.column_stack([np.cos(angle) * 0.998, np.sin(angle) * 0.998])
        first = np.concatenate([_blob(rng, 150, 0.85, 0.0, 2.0 ** -7), ring])
        points = np.concatenate([first, _blob(rng, 80, 0.6, 0.3, 2.0 ** -8)])
        hull = _hull(first)
        for r in (0.03, 0.1, 0.25):
            expected = _reference_chord_probe(hull, points, r)
            assert expected is not None
            assert _best_chord_probe(hull, points, r) == expected

    def test_cells_at_distance_r(self):
        # the hull of one small square gives a dozen candidates, half of
        # which hold the square's center; two points at distance r from
        # one candidate, on an edge of its bounding box and inside no
        # other disk, make that candidate win unless a prune drops them
        base, hull = np.zeros((1, 2)), _square(0.0, 0.0, 1e-3)
        r = 0.12
        centers = [c for c, _ in _reference_chord_scores(hull, base, r)]
        boundary = 0
        for k, (cx, cy) in enumerate(centers):
            for ex, ey in ((r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)):
                sx, sy = cx + ex, cy + ey
                inside = [(sx - ox) ** 2 + (sy - oy) ** 2 <= r * r
                          for ox, oy in centers]
                if not inside[k] or sum(inside) > 1:
                    continue
                boundary += 1
                points = np.array([[0.0, 0.0], [sx, sy], [sx, sy]])
                assert _reference_chord_probe(hull, points, r) == (cx, cy)
                assert _best_chord_probe(hull, points, r) == (cx, cy)
        assert boundary >= 4

    def test_skips_only_candidates_an_earlier_one_beats(self, monkeypatch):
        # two blocks of pairs: in the first, tiles scored earlier let later
        # ones be skipped; in the second, so does the first block's best.
        # A skipped candidate must hold no more points than an earlier
        # candidate: one that only a later candidate reaches may still win
        rng = np.random.default_rng(1)
        first = _blob(rng, 150, 0.1, -0.2, 2.0 ** -7)
        points = np.concatenate([first, _blob(rng, 60, 0.3, 0.1, 2.0 ** -8)])
        hull, r = _hull(first), 0.02
        scored = set()
        near_scores = optimizer._near_scores

        def spy(sx, sy, cx, cy, radius, buf):
            scored.update(zip(cx.tolist(), cy.tolist()))
            return near_scores(sx, sy, cx, cy, radius, buf)

        monkeypatch.setattr(optimizer, "_near_scores", spy)
        assert _best_chord_probe(hull, points, r) == \
            _reference_chord_probe(hull, points, r)
        blocks = _candidate_blocks(hull, r)
        assert max(blocks) == 1
        lead, block_lead = -math.inf, [-math.inf, -math.inf]
        witness_skips = floor_skips = 0
        for (center, score), block in zip(
                _reference_chord_scores(hull, points, r), blocks):
            if center not in scored:
                assert score <= lead, center
                if block == 0:
                    witness_skips += 1  # the first block has no floor
                elif score > block_lead[block]:
                    floor_skips += 1  # nothing earlier in its block reaches it
            lead = max(lead, score)
            block_lead[block] = max(block_lead[block], score)
        assert witness_skips > 0 and floor_skips > 0

    def test_exact_tie_across_tiles_keeps_first_candidate(self):
        # half the dozen candidates around one point hold it; the first
        # of them and later ones in other tiles hold exactly as many.  A
        # point far off, in no candidate disk, raises the bound of a later
        # candidate's tile, which is then scored first: as a witness from
        # later in scan order it would let the first candidate's tile be
        # skipped
        r = 0.12
        hull = _square(0.0, 0.0, 1e-3)
        points = np.array([[0.0, 0.0], [-0.205, 0.103]])

        def tile(center):
            return tuple(math.floor(v / (0.5 * r)) for v in center)

        (first, score), *later = _reference_chord_scores(hull, points, r)
        assert score == 1 and all(s <= 1 for _, s in later)
        assert any(s == score and tile(c) != tile(first) for c, s in later)
        assert _reference_chord_probe(hull, points, r) == first
        assert _best_chord_probe(hull, points, r) == first

    def test_no_candidate(self):
        # candidates along the hull of one large square never reach its
        # center, so every count is zero and no center wins
        hull, points = _square(0.0, 0.0, 0.5), np.zeros((1, 2))
        assert _best_chord_probe(hull, points, 0.1) is None
        assert _reference_chord_probe(hull, points, 0.1) is None
