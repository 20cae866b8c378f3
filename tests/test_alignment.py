"""Least-squares alignment: recovery, optimality, oracles, serialization."""

import logging
import tracemalloc

import numpy as np
import pytest

from conftest import make_space, normal_equations, paired_spaces
from oracles import alignment_objective
from entkit.alignment import (
    FIT_BLOCK,
    AlignmentMap,
    derive_entity_space,
    fit_alignment,
    load_alignment,
    save_alignment,
)
from entkit.embeddings import SpaceKind, shared_vocabulary
from entkit.errors import DataError


def fit_pair(seed, d_src=8, d_tgt=8, n=24, noise=0.0, n_entities=0):
    wiki, wp, w_star = paired_spaces(seed, d_src, d_tgt, n, noise, n_entities)
    pairs = shared_vocabulary(wp, wiki)
    return wiki, wp, pairs, w_star, fit_alignment(wiki, wp, pairs)


class TestFit:
    def test_noiseless_recovery_is_exact_to_solver_precision(self):
        for seed in range(10):
            _, _, _, w_star, amap = fit_pair(seed, d_src=8, d_tgt=6, n=21)
            assert np.max(np.abs(amap.w - w_star)) < 1e-10
            assert amap.residual < 1e-20
            assert not amap.rank_deficient
            assert amap.shared_count == 21

    def test_noisy_solution_matches_normal_equations(self):
        for seed in range(10):
            wiki, wp, pairs, _, amap = fit_pair(seed, n=40, noise=0.05)
            x = wiki.matrix[[p.wiki_id for p in pairs]].astype(np.float64)
            y = wp.matrix[[p.wp_id for p in pairs]].astype(np.float64)
            np.testing.assert_allclose(
                amap.w, normal_equations(x, y), rtol=0.0, atol=1e-8
            )

    def test_residual_is_the_objective_at_the_solution(self):
        wiki, wp, pairs, _, amap = fit_pair(3, n=30, noise=0.1)
        direct = alignment_objective(amap.w, wiki, wp, pairs)
        assert amap.residual == pytest.approx(direct, abs=1e-12)
        x = wiki.matrix[[p.wiki_id for p in pairs]].astype(np.float64)
        y = wp.matrix[[p.wp_id for p in pairs]].astype(np.float64)
        assert amap.residual == pytest.approx(
            float(np.sum((x @ amap.w.T - y) ** 2)), abs=1e-12
        )

    def test_fitted_objective_beats_perturbations(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            wiki, wp, pairs, _, amap = fit_pair(seed, n=30, noise=0.1)
            base = alignment_objective(amap.w, wiki, wp, pairs)
            for _ in range(100):
                delta = 1e-3 * rng.standard_normal(amap.w.shape)
                assert base <= alignment_objective(
                    amap.w + delta, wiki, wp, pairs
                ) + 1e-12

    def test_rectangular_dimensions(self):
        _, _, _, w_star, amap = fit_pair(5, d_src=6, d_tgt=10, n=20)
        assert amap.w.shape == (10, 6)
        assert amap.d_tgt == 10 and amap.d_src == 6
        assert np.max(np.abs(amap.w - w_star)) < 1e-10

    def test_rank_deficiency_flags_and_takes_min_norm(self, caplog):
        # Source vectors confined to a 3-dimensional slice of a 5-dim space.
        rng = np.random.default_rng(0)
        basis = rng.standard_normal((3, 5))
        coeff = rng.standard_normal((12, 3))
        x = coeff @ basis
        y = rng.standard_normal((12, 4))
        wiki = make_space(
            [f"w{i}" for i in range(12)], x, SpaceKind.WORD_AND_ENTITY
        )
        wp = make_space([f"w{i}" for i in range(12)], y, SpaceKind.WORDPIECE)
        pairs = shared_vocabulary(wp, wiki)
        with caplog.at_level(logging.WARNING):
            amap = fit_alignment(wiki, wp, pairs)
        assert amap.rank_deficient
        assert any("minimum-norm" in r.message for r in caplog.records)
        np.testing.assert_allclose(amap.w, (np.linalg.pinv(x) @ y).T, atol=1e-8)

    def test_zero_pairs_rejected(self):
        wiki, wp, _ = paired_spaces(0, 4, 4, 5)
        with pytest.raises(ValueError, match="zero shared symbols"):
            fit_alignment(wiki, wp, [])


class TestBlockedFit:
    """The fit reduces FIT_BLOCK pairs at a time; no count of pairs may
    change what it computes."""

    D_SRC, D_TGT = 8, 5

    @pytest.mark.parametrize("n", [
        1, D_SRC - 1, D_SRC, FIT_BLOCK, FIT_BLOCK + 1, 3 * FIT_BLOCK + 7,
    ])
    def test_every_block_edge_matches_lstsq(self, n):
        wiki, wp, pairs, _, amap = fit_pair(n, self.D_SRC, self.D_TGT, n, noise=0.01)
        x = wiki.matrix[[p.wiki_id for p in pairs]].astype(np.float64)
        y = wp.matrix[[p.wp_id for p in pairs]].astype(np.float64)
        wt, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
        assert amap.rank_deficient == (rank < self.D_SRC)
        np.testing.assert_allclose(amap.w, wt.T, rtol=0.0, atol=1e-10)
        assert amap.residual == pytest.approx(
            alignment_objective(amap.w, wiki, wp, pairs), abs=1e-12
        )
        assert not np.any(np.signbit(amap.w) & (amap.w == 0.0))

    @pytest.mark.parametrize("ratio", [1e-3, 0.5, 2.0, 10.0, 1e6])
    def test_rank_is_lstsq_s_near_the_cutoff(self, ratio):
        # Half the singular values are 1, half are ratio * lstsq's cutoff.
        # Below the cutoff the system is rank deficient; at 0.5 and 2 those
        # of R must land on the same side of it as those of X.
        rng = np.random.default_rng(int(ratio * 1000))
        n, d = 40, 6
        cutoff = np.finfo(np.float64).eps * n
        u, _ = np.linalg.qr(rng.standard_normal((n, d)))
        v, _ = np.linalg.qr(rng.standard_normal((d, d)))
        s = np.repeat([1.0, ratio * cutoff], d // 2)
        x = (u * s) @ v.T
        y = rng.standard_normal((n, 3))
        symbols = [f"w{i}" for i in range(n)]
        wiki = make_space(symbols, x, SpaceKind.WORD_AND_ENTITY)
        wp = make_space(symbols, y, SpaceKind.WORDPIECE)
        amap = fit_alignment(wiki, wp, shared_vocabulary(wp, wiki))
        assert amap.rank_deficient == (np.linalg.lstsq(x, y, rcond=None)[2] < d)
        assert amap.rank_deficient == (ratio < 1.0)

    def test_memory_is_bounded_by_the_block_not_the_pairs(self):
        n, d = 20_000, 16
        wiki, wp, _ = paired_spaces(0, d, d, n, noise=0.01)
        pairs = shared_vocabulary(wp, wiki)
        bound = 6 * FIT_BLOCK * (2 * d) * 8
        assert n * (2 * d) * 8 > bound  # the float64 copies of every pair
        tracemalloc.start()
        try:
            amap = fit_alignment(wiki, wp, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert amap.shared_count == n and not amap.rank_deficient
        assert peak < bound, peak


class TestApplyAndDerive:
    def test_derive_entity_space_maps_only_entities(self):
        wiki, wp, _, w_star, amap = fit_pair(9, n=20, n_entities=3)
        derived = derive_entity_space(amap, wiki)
        assert derived.vocab.symbols == tuple(wiki.entity_symbols())
        assert derived.dim == amap.d_tgt
        for sym in derived.vocab.symbols:
            np.testing.assert_allclose(
                derived.row(sym),
                amap.w @ wiki.row(sym).astype(np.float64),
                atol=1e-12,
            )

    def test_derive_rejects_wordpiece_space(self):
        wiki, wp, _, _, amap = fit_pair(1)
        with pytest.raises(ValueError, match="word-and-entity"):
            derive_entity_space(amap, wp)

    def test_derive_rejects_dimension_mismatch(self):
        wiki, _, _ = paired_spaces(0, 6, 6, 15, n_entities=1)
        amap = AlignmentMap(np.zeros((6, 4)), 1, 0.0)
        with pytest.raises(ValueError, match="does not match"):
            derive_entity_space(amap, wiki)


    def test_overflowing_map_is_a_data_error_without_warnings(self):
        # Under the suite's error::RuntimeWarning filter a numpy overflow
        # warning would surface here as an exception instead.
        wiki = make_space(["w", "ENTITY/E"], np.ones((2, 2)), SpaceKind.WORD_AND_ENTITY)
        amap = AlignmentMap(np.full((2, 2), 1e308), 1, 0.0)
        with pytest.raises(DataError, match="non-finite embedding row"):
            derive_entity_space(amap, wiki)


class TestDeriveSubset:
    """Deriving only some entities gives the rows of the full derivation."""

    @staticmethod
    def generic_world(n_entities=150, d_src=9, d_tgt=11):
        # Standard-normal values and weights, so no product is exact and a
        # shape-dependent summation order would show in the last bits.
        rng = np.random.default_rng(17)
        symbols = []
        for i in range(n_entities):
            symbols.append(f"ENTITY/E{i}")
            if i % 7 == 0:
                symbols.append(f"word{i}")
        matrix = rng.standard_normal((len(symbols), d_src)).astype(np.float32)
        wiki = make_space(symbols, matrix, SpaceKind.WORD_AND_ENTITY)
        amap = AlignmentMap(rng.standard_normal((d_tgt, d_src)), 1, 0.0)
        return wiki, amap, rng

    @pytest.mark.parametrize("k", [1, 7, 64, 65, 150])
    def test_subset_rows_are_the_full_rows(self, k):
        wiki, amap, rng = self.generic_world()
        full = derive_entity_space(amap, wiki)
        entities = full.vocab.symbols
        pick = sorted(rng.choice(len(entities), size=k, replace=False))
        wanted = [entities[i] for i in pick]
        sub = derive_entity_space(amap, wiki, reversed(wanted))
        assert sub.vocab.symbols == tuple(wanted)  # wiki order, not call order
        assert sub.dim == amap.d_tgt and sub.matrix.dtype == np.float64
        assert np.array_equal(sub.matrix, full.matrix[pick])

    def test_repeats_and_empty_sets(self):
        wiki, amap, _ = self.generic_world()
        full = derive_entity_space(amap, wiki)
        twice = derive_entity_space(amap, wiki, ["ENTITY/E3", "ENTITY/E3"])
        assert twice.vocab.symbols == ("ENTITY/E3",)
        assert np.array_equal(twice.matrix, full.matrix[[3]])
        empty = derive_entity_space(amap, wiki, [])
        assert len(empty.vocab) == 0 and empty.matrix.shape == (0, amap.d_tgt)

    def test_word_or_missing_symbol_is_a_clear_error(self):
        wiki, amap, _ = self.generic_world()
        with pytest.raises(DataError, match=r"not entities: \['word0'\]"):
            derive_entity_space(amap, wiki, ["ENTITY/E1", "word0"])
        with pytest.raises(
            DataError, match=r"missing from entity space: \['ENTITY/Nowhere'\]"
        ):
            derive_entity_space(amap, wiki, ["ENTITY/E1", "ENTITY/Nowhere"])

    def test_subset_checks_dimensions_first(self):
        wiki, _, _ = self.generic_world()
        with pytest.raises(DataError, match="does not match"):
            derive_entity_space(AlignmentMap(np.zeros((4, 5)), 1, 0.0), wiki, ["x"])


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        _, _, _, _, amap = fit_pair(4, n=30, noise=0.3)
        f = tmp_path / "map.tsv"
        save_alignment(amap, f)
        again = load_alignment(f)
        np.testing.assert_array_equal(again.w, amap.w)
        assert again.residual == amap.residual
        assert again.shared_count == amap.shared_count
        assert again.rank_deficient is False

    def test_header_layout(self, tmp_path):
        amap = AlignmentMap(np.array([[1.5, -0.25]]), 7, 0.125)
        f = tmp_path / "map.tsv"
        save_alignment(amap, f)
        lines = f.read_text().splitlines()
        assert lines[0] == "1 2 0.125 7"
        assert lines[1] == "1.5 -0.25"

    def test_load_errors(self, tmp_path):
        f = tmp_path / "bad.tsv"
        f.write_text("1 2 0.0\n1.0 2.0\n")
        with pytest.raises(DataError, match="malformed alignment header"):
            load_alignment(f)
        f.write_text("2 2 0.0 4\n1.0 2.0\n")
        with pytest.raises(DataError, match="declares 2 rows"):
            load_alignment(f)
        f.write_text("1 2 0.0 4\n1.0 x\n")
        with pytest.raises(DataError, match="line 2: unparseable"):
            load_alignment(f)
        f.write_text("1 2 0.0 4\n1.0\n")
        with pytest.raises(DataError, match="expected 2 values"):
            load_alignment(f)
        f.write_text("")
        with pytest.raises(DataError, match="empty alignment file"):
            load_alignment(f)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e309"])
    def test_non_finite_value_names_its_line(self, tmp_path, value):
        f = tmp_path / "bad.tsv"
        f.write_text(f"2 2 0.0 4\n1.0 2.0\n3.0 {value}\n")
        with pytest.raises(DataError) as exc:
            load_alignment(f)
        assert str(exc.value) == f"{f}: line 3: non-finite value"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e309"])
    def test_non_finite_residual_is_rejected(self, tmp_path, value):
        f = tmp_path / "bad.tsv"
        f.write_text(f"1 1 {value} 3\n0.5\n")
        with pytest.raises(DataError) as exc:
            load_alignment(f)
        assert str(exc.value) == f"{f}: line 1: non-finite residual"
