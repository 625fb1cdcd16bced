"""Greedy gap filling and the evolutionary layer search.

The full-budget evolution is exercised by the acceptance suite; the unit
tests here stay fast by using zero generations (warm starts only)."""
from __future__ import annotations

import math

import numpy as np
import pytest

from marcopolo import optimizer
from marcopolo.geometry import Point2, Probe, _cells_hull
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
        with pytest.raises(ValueError):
            OptimizerConfig(greedy_max_probes=3)


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
        seed = construct_layer("ALG4", ALG7_RHO1)
        partial = LayerPlacement("ALG7", seed.probes[:4], ALG7_RHO1,
                                 False, "disk")
        with pytest.raises(CertificationError) as info:
            greedy_fill(partial, max_probes=7)
        attached = info.value.placement
        assert not attached.certified
        assert attached.m <= 7


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


def _reference_chord_scores(regions, r, hull_cap=96):
    """Every candidate center with its removed area, one candidate at a
    time in (i, j, +/-) order over the hull-point pairs."""
    pts = _densify_hull(_cells_hull(regions[0]), r / 2.0, hull_cap)
    cells = np.concatenate(regions)
    if len(cells) > 4000:
        cells = cells[::int(math.ceil(len(cells) / 4000))]
    weight = (2.0 * cells[:, 2]) ** 2
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
                inside = ((cells[:, 0] - cx) ** 2
                          + (cells[:, 1] - cy) ** 2) <= r * r
                out.append(((cx, cy), float((weight * inside).sum())))
    return out


def _reference_chord_probe(regions, r, hull_cap=96):
    best, best_score = None, 0.0
    for center, removed in _reference_chord_scores(regions, r, hull_cap):
        if removed > best_score + 1e-15:
            best_score, best = removed, center
    return best


def _candidate_blocks(regions, r, hull_cap=96):
    """The block of pairs of each candidate of ``_reference_chord_scores``."""
    pts = _densify_hull(_cells_hull(regions[0]), r / 2.0, hull_cap)
    blocks = []
    for k, (i, j) in enumerate(zip(*np.triu_indices(len(pts), 1))):
        d2 = ((pts[j] - pts[i]) ** 2).sum()
        if 1e-18 <= d2 <= 4.0 * r * r:
            blocks += [k // _PAIR_BLOCK] * 2
    return blocks


def _blob(rng, count, x0, y0, half):
    """Square cells of one size on a grid patch around (x0, y0)."""
    ix = rng.integers(-12, 12, count)
    iy = rng.integers(-8, 8, count)
    return np.column_stack([x0 + (2 * ix + 1) * half, y0 + (2 * iy + 1) * half,
                            np.full(count, half)])


class TestBestChordProbe:
    @pytest.mark.parametrize("seed,many", [(0, False), (1, False), (2, True),
                                           (3, True)])
    def test_random_regions(self, seed, many):
        rng = np.random.default_rng(seed)
        regions = [_blob(rng, 150, 0.1, -0.2, 2.0 ** -7),
                   _blob(rng, 4500 if many else 60, 0.3, 0.1, 2.0 ** -8)]
        assert (sum(map(len, regions)) > 4000) == many
        # the smallest radius densifies the hull to over a hundred points,
        # several thousand pairs
        for r, cap in ((0.01, 96), (0.05, 96), (0.12, 32), (0.3, 96)):
            expected = _reference_chord_probe(regions, r, cap)
            got = _best_chord_probe(regions, r, cap)
            assert expected is not None
            assert got == expected

    def test_tied_scores_keep_first_candidate(self):
        # four equal cells well inside every candidate disk: each
        # candidate removes the same area, so the first one must win
        half = 2.0 ** -6
        cells = np.array([[sx * half, sy * half, half]
                          for sx in (-1, 1) for sy in (-1, 1)])
        r = 0.2
        scores = [score for _, score in _reference_chord_scores([cells], r)]
        assert scores.count(max(scores)) > 1
        assert _best_chord_probe([cells], r) == \
            _reference_chord_probe([cells], r)

    def test_near_tie_keeps_first_candidate(self):
        # cells of weight 4e-16 make later candidates beat earlier ones by
        # less than the 1e-15 margin, which must not displace them
        rng = np.random.default_rng(1)
        big = _blob(rng, 40, 0.0, 0.0, 2.0 ** -6)
        tiny = np.column_stack([rng.uniform(-0.3, 0.3, (30, 2)),
                                np.full(30, 1e-8)])
        regions, r = [big, tiny], 0.15
        scored = _reference_chord_scores(regions, r)
        first_max = max(scored, key=lambda pair: pair[1])[0]
        expected = _reference_chord_probe(regions, r)
        assert expected != first_max
        assert _best_chord_probe(regions, r) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_dyadic_and_annulus_cells(self, seed):
        # refine-mode annulus cells have non-dyadic half-sides such as
        # 0.002, so sums over them round differently in another order
        rng = np.random.default_rng(10 + seed)
        angle = np.sort(rng.uniform(-0.6, 0.6, 400))
        ring = np.column_stack([np.cos(angle) * 0.998, np.sin(angle) * 0.998,
                                np.full(angle.size, 0.002)])
        regions = [np.concatenate([_blob(rng, 150, 0.85, 0.0, 2.0 ** -7),
                                   ring]),
                   _blob(rng, 80, 0.6, 0.3, 2.0 ** -8)]
        for r, cap in ((0.03, 96), (0.1, 32), (0.25, 96)):
            expected = _reference_chord_probe(regions, r, cap)
            assert expected is not None
            assert _best_chord_probe(regions, r, cap) == expected

    def test_cells_at_distance_r(self):
        # the hull of one small cell gives a dozen candidates, each of
        # which removes that cell; a heavy cell at distance r from one
        # candidate, on an edge of its bounding box and inside no other
        # disk, makes that candidate win unless a prune drops the cell
        base = np.array([[0.0, 0.0, 1e-3]])
        r = 0.12
        centers = [c for c, _ in _reference_chord_scores([base], r)]
        boundary = 0
        for k, (cx, cy) in enumerate(centers):
            for ex, ey in ((r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)):
                sx, sy = cx + ex, cy + ey
                inside = [(sx - ox) ** 2 + (sy - oy) ** 2 <= r * r
                          for ox, oy in centers]
                if not inside[k] or sum(inside) > 1:
                    continue
                boundary += 1
                regions = [base, np.array([[sx, sy, 0.01]])]
                assert _reference_chord_probe(regions, r) == (cx, cy)
                assert _best_chord_probe(regions, r) == (cx, cy)
        assert boundary >= 4

    def test_rescore_decides_between_rounded_sums(self):
        # a pruned score sums the same weights as the row sum but in
        # order of x (for fewer than 8 cells NumPy sums sequentially);
        # here that order makes a scan over pruned scores pick another
        # winner than the row sums do, and so does a scan over the row
        # sums of only those candidates whose pruned score beats every
        # earlier one: the contenders need the rounding guard
        rng = np.random.default_rng(17396)
        big = np.column_stack([rng.uniform(-0.05, 0.05, (3, 2)),
                               rng.uniform(0.005, 0.02, 3)])
        half = math.sqrt(1e-15) / 2.0 * (1.0 + rng.uniform(-3e-3, 3e-3, 4))
        tiny = np.column_stack([rng.uniform(-0.08, 0.08, (4, 2)), half])
        regions, r = [big, tiny], 0.06
        cells = np.concatenate(regions)
        weight = (2.0 * cells[:, 2]) ** 2
        by_x = np.argsort(cells[:, 0], kind="stable")
        row_sums, x_sums = [], []
        for (cx, cy), removed in _reference_chord_scores(regions, r):
            inside = ((cells[:, 0] - cx) ** 2
                      + (cells[:, 1] - cy) ** 2) <= r * r
            row_sums.append(removed)
            x_sums.append(float((weight * inside)[by_x].sum()))
        assert row_sums != x_sums

        def first_best(scores):
            best, best_score = None, 0.0
            for k, score in enumerate(scores):
                if score > best_score + 1e-15:
                    best, best_score = k, score
            return best

        winner = first_best(row_sums)
        assert first_best(x_sums) != winner
        records = np.flatnonzero(np.array(x_sums) > np.maximum.accumulate(
            [0.0] + x_sums[:-1]))
        assert first_best([row_sums[k] if k in records else 0.0
                           for k in range(len(row_sums))]) != winner
        assert _best_chord_probe(regions, r) == \
            _reference_chord_probe(regions, r)

    def test_skips_only_candidates_an_earlier_one_beats(self, monkeypatch):
        # two blocks of pairs: in the first, tiles scored earlier let later
        # ones be skipped; in the second, so does the first block's best.
        # A skipped candidate must lie below an earlier candidate: one
        # that only a later candidate beats may still win the scan
        rng = np.random.default_rng(1)
        regions = [_blob(rng, 150, 0.1, -0.2, 2.0 ** -7),
                   _blob(rng, 60, 0.3, 0.1, 2.0 ** -8)]
        r = 0.02
        scored = set()
        near_scores = optimizer._near_scores

        def spy(sx, sy, weight, cx, cy, radius, buf):
            scored.update(zip(cx.tolist(), cy.tolist()))
            return near_scores(sx, sy, weight, cx, cy, radius, buf)

        monkeypatch.setattr(optimizer, "_near_scores", spy)
        assert _best_chord_probe(regions, r) == \
            _reference_chord_probe(regions, r)
        blocks = _candidate_blocks(regions, r)
        assert max(blocks) == 1
        lead, block_lead = -math.inf, [-math.inf, -math.inf]
        witness_skips = floor_skips = 0
        for (center, score), block in zip(_reference_chord_scores(regions, r),
                                          blocks):
            if center not in scored:
                assert score < lead, center
                if block == 0:
                    witness_skips += 1  # the first block has no floor
                elif score >= block_lead[block]:
                    floor_skips += 1  # nothing earlier in its block beats it
            lead = max(lead, score)
            block_lead[block] = max(block_lead[block], score)
        assert witness_skips > 0 and floor_skips > 0

    def test_exact_tie_across_tiles_keeps_first_candidate(self):
        # half the dozen candidates around one cell remove it; the first
        # of them and a later one in another tile remove exactly as much.
        # A tiny cell far off adds 5e-16, below the 1e-15 margin, to a
        # later candidate, whose tile has the largest bound and is scored
        # first: as a witness from later in scan order it would let the
        # first candidate's tile be skipped
        r = 0.12
        regions = [np.array([[0.0, 0.0, 1e-3]]),
                   np.array([[0.0, -0.229, math.sqrt(5e-16) / 2.0]])]

        def tile(center):
            return tuple(math.floor(v / (0.5 * r)) for v in center)

        (first, score), *later = _reference_chord_scores(regions, r)
        assert score > 0.0
        assert any(s == score and tile(c) != tile(first) for c, s in later)
        assert any(score < s <= score + 1e-15 for _, s in later)
        assert _reference_chord_probe(regions, r) == first
        assert _best_chord_probe(regions, r) == first

    def test_no_candidate(self):
        # candidates along the hull of one large cell never reach its
        # center, so every score is zero and no center wins
        cells = np.array([[0.0, 0.0, 0.5]])
        assert _best_chord_probe([cells], 0.1) is None
        assert _reference_chord_probe([cells], 0.1) is None
