"""Embedding lookup, leave-one-out contextualization, scoring, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ent_space_with, make_space, wp_space_with
from oracles import head_gradients, mask_state
from entkit.embeddings import SpaceKind, Vocabulary
from entkit.entity_linking import candidate_groups
from entkit.errors import DataError
from entkit.lama_bench import rank_answers
from entkit.scorer import (
    ROW_BLOCK,
    AffineHead,
    ReferenceScorer,
    by_blocks,
    candidate_probs,
)
from entkit.text_input import Token, TokenKind, TokenSequence

DIM = 4
WP = wp_space_with(
    {
        "the": [1.0, 0.0, 0.0, 0.0],
        "cat": [0.0, 1.0, 0.0, 0.0],
        "sat": [0.0, 0.0, 1.0, 0.0],
    },
    DIM,
)
ENT = ent_space_with(
    {
        "ENTITY/A": [2.0, 0.0, 0.0, 0.0],
        "ENTITY/B": [0.0, 4.0, 0.0, 0.0],
    },
    DIM,
)


def seq_of(*tokens):
    return TokenSequence(tuple(tokens))


def embed(seq, wp, ent=None):
    return ReferenceScorer(wp, ent).embed(seq)


def contextualize(vectors):
    return ReferenceScorer(WP).contextualize(vectors)


class TestEmbedSequence:
    def test_dispatch_per_kind(self):
        seq = seq_of(
            Token.wordpiece("[CLS]"),
            Token.wordpiece("the"),
            Token.entity("ENTITY/A"),
            Token.mask(),
            Token.emask(["ENTITY/A", "ENTITY/B"]),
            Token.wordpiece("/"),
        )
        vecs = embed(seq, WP, ENT)
        np.testing.assert_array_equal(vecs[0], np.zeros(DIM))  # [CLS] row
        np.testing.assert_array_equal(vecs[1], [1, 0, 0, 0])
        np.testing.assert_array_equal(vecs[2], [2, 0, 0, 0])
        np.testing.assert_array_equal(vecs[3], np.zeros(DIM))  # [MASK] row
        np.testing.assert_array_equal(vecs[4], [1, 2, 0, 0])  # candidate mean
        assert all(v.dtype == np.float64 for v in vecs)

    def test_entity_masks_average_their_candidates_in_order(self):
        # Masks of 1 to 9 candidates, repeats among them, in one sequence:
        # each row is the candidate rows added one by one from zero, over c.
        rng = np.random.default_rng(7)
        names = [f"ENTITY/E{i}" for i in range(6)]
        ent = ent_space_with({n: rng.standard_normal(DIM) * 1e3 for n in names}, DIM)
        masks = [Token.emask(list(rng.choice(names, c))) for c in range(1, 10)]
        vecs = embed(seq_of(Token.wordpiece("the"), *masks, Token.entity(names[0])), WP, ent)
        for tok, vec in zip(masks, vecs[1:]):
            total = np.zeros(DIM)
            for name in tok.candidates:
                total = total + ent.row(name).astype(np.float64)
            assert np.array_equal(vec.view(np.int64), (total / len(tok.candidates)).view(np.int64))
        assert np.array_equal(vecs[-1], ent.row(names[0]).astype(np.float64))

    def test_unknown_wordpiece_falls_back_to_unk(self):
        vecs = embed(seq_of(Token.wordpiece("zzz")), WP, None)
        np.testing.assert_array_equal(vecs[0], WP.row("[UNK]").astype(np.float64))

    def test_missing_unk_is_an_error(self):
        no_unk = make_space(["the"], [[1.0, 0, 0, 0]], SpaceKind.WORDPIECE)
        with pytest.raises(DataError, match="no \\[UNK\\] row"):
            embed(seq_of(Token.wordpiece("zzz")), no_unk, None)

    def test_missing_entity_is_an_error(self):
        with pytest.raises(DataError, match="missing from entity space"):
            embed(seq_of(Token.entity("ENTITY/Nope")), WP, ENT)
        with pytest.raises(DataError, match="missing from entity space"):
            embed(
                seq_of(Token.emask(["ENTITY/A", "ENTITY/Nope"])), WP, ENT
            )

    def test_entity_token_without_entity_space_is_an_error(self):
        with pytest.raises(ValueError, match="no entity space"):
            embed(seq_of(Token.entity("ENTITY/A")), WP, None)

    def test_mismatched_dimensions_rejected(self):
        ent3 = ent_space_with({"ENTITY/A": [1.0, 2.0, 3.0]}, 3)
        with pytest.raises(ValueError, match="different dimensions"):
            embed(
                seq_of(Token.wordpiece("the"), Token.entity("ENTITY/A")), WP, ent3
            )


class TestContextualize:
    def test_leave_one_out_mean(self):
        v = [np.array([2.0, 0.0]), np.array([0.0, 4.0]), np.array([6.0, 2.0])]
        out = contextualize(v)
        np.testing.assert_allclose(out[0], [3.0, 3.0])
        np.testing.assert_allclose(out[1], [4.0, 1.0])
        np.testing.assert_allclose(out[2], [1.0, 2.0])

    def test_singleton_is_zero(self):
        out = contextualize([np.array([5.0, 7.0])])
        np.testing.assert_array_equal(out[0], [0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            contextualize([])


class TestAffineHead:
    def test_identity_and_zeros(self):
        h = np.array([1.0, -2.0, 3.0, 4.0])
        np.testing.assert_array_equal(AffineHead.identity(4).apply(h), h)
        np.testing.assert_array_equal(AffineHead.zeros(4).apply(h), np.zeros(4))

    def test_affine_application(self):
        head = AffineHead(np.array([[2.0, 0.0], [0.0, 3.0]]), np.array([1.0, -1.0]))
        np.testing.assert_array_equal(head.apply(np.array([1.0, 1.0])), [3.0, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            AffineHead(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            AffineHead(np.zeros((2, 2)), np.zeros(3))


class TestByBlocks:
    def test_fixed_shape_zero_padded_blocks(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((150, 5)).astype(np.float32)
        w = rng.standard_normal((5, 7))
        blocks = []

        def f(b):
            blocks.append(b.copy())
            return b @ w

        out = by_blocks(x, 7, f)
        assert out.shape == (150, 7) and out.dtype == np.float64
        assert [(b.shape, b.dtype) for b in blocks] == [((ROW_BLOCK, 5), np.float64)] * 3
        padded = np.zeros((3 * ROW_BLOCK, 5))
        padded[:150] = x
        assert np.array_equal(np.concatenate(blocks), padded)
        assert np.array_equal(out, np.concatenate(
            [padded[s : s + ROW_BLOCK] @ w for s in range(0, len(padded), ROW_BLOCK)]
        )[:150])
        for start, stop in [(0, 1), (7, 8), (60, 70), (149, 150)]:
            part = by_blocks(x[start:stop], 7, lambda b: b @ w)
            assert np.array_equal(part, out[start:stop])

    def test_zero_rows(self):
        def f(b):
            raise AssertionError("no block to map")

        out = by_blocks(np.empty((0, 5)), 7, f)
        assert out.shape == (0, 7)


def one_row_probs(h, head, cands):
    """``candidate_probs`` of a batch of one state ``h`` whose candidates are
    the ``(e, b)`` pairs ``cands``, the last one as the shared candidate."""
    h = np.asarray(h, dtype=np.float64)
    *own, shared = cands
    e = np.array([e for e, _ in own], dtype=np.float64).reshape(1, len(own), len(h))
    group = ([0], e, np.array([[b for _, b in own]]))
    return candidate_probs(head.apply(h[None]), [group], shared)[0][0]


class TestScoreCandidates:
    """Candidate probabilities, through ``candidate_probs`` with a batch of one."""

    def test_matches_plain_softmax(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal(DIM)
        head = AffineHead(rng.standard_normal((DIM, DIM)), rng.standard_normal(DIM))
        cands = [(rng.standard_normal(DIM), float(rng.standard_normal())) for _ in range(5)]
        probs = one_row_probs(h, head, cands)
        u = head.a @ h + head.c
        logits = np.array([e @ u + b for e, b in cands])
        expected = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(probs, expected, atol=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariance(self):
        h = np.ones(2)
        head = AffineHead.identity(2)
        cands = [(np.array([1.0, 0.0]), 0.5), (np.array([0.0, 1.0]), -0.5)]
        shifted = [(e, b + 100.0) for e, b in cands]
        np.testing.assert_allclose(
            one_row_probs(h, head, cands),
            one_row_probs(h, head, shifted),
            atol=1e-12,
        )

    def test_extreme_logits_stay_finite(self):
        h = np.array([1000.0])
        head = AffineHead.identity(1)
        probs = one_row_probs(
            h, head, [(np.array([1.0]), 0.0), (np.array([-1.0]), 0.0)]
        )
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-12)

    def test_empty_rejected(self):
        # Every row scores at least the shared candidate, so an empty
        # candidate list is rejected before scoring.
        with pytest.raises(ValueError, match="no candidates"):
            candidate_groups([[]], ENT)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=6),
        st.randoms(use_true_random=False),
    )
    def test_permutation_equivariance_and_normalization(self, biases, rnd):
        head = AffineHead.zeros(2)
        cands = [(np.zeros(2), b) for b in biases]
        probs = one_row_probs(np.zeros(2), head, cands)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        perm = list(range(len(biases)))
        rnd.shuffle(perm)
        probs2 = one_row_probs(np.zeros(2), head, [cands[i] for i in perm])
        np.testing.assert_allclose(probs2, probs[perm], atol=1e-12)


def numerical_gradient(loss_fn, array, delta=1e-6):
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + delta
        up = loss_fn()
        flat[i] = orig - delta
        down = loss_fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * delta)
    return grad


class TestHeadGradients:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            dim = int(rng.integers(2, 6))
            n_cands = int(rng.integers(2, 5))
            h = rng.standard_normal(dim)
            a = rng.standard_normal((dim, dim))
            c = rng.standard_normal(dim)
            es = [rng.standard_normal(dim) for _ in range(n_cands)]
            bs = [float(rng.standard_normal()) for _ in range(n_cands)]
            gold = int(rng.integers(0, n_cands))

            def loss():
                probs = one_row_probs(
                    h, AffineHead(a, c), [(e, b) for e, b in zip(es, bs)]
                )
                return -np.log(probs[gold])

            grads = head_gradients(
                h, AffineHead(a.copy(), c.copy()),
                [(e, b) for e, b in zip(es, bs)], gold,
            )
            assert grads.loss == pytest.approx(loss(), abs=1e-12)

            np.testing.assert_allclose(
                grads.a, numerical_gradient(loss, a), rtol=1e-4, atol=1e-7
            )
            np.testing.assert_allclose(
                grads.c, numerical_gradient(loss, c), rtol=1e-4, atol=1e-7
            )
            for j in range(n_cands):
                de, db = grads.cands[j]
                np.testing.assert_allclose(
                    de, numerical_gradient(loss, es[j]), rtol=1e-4, atol=1e-7
                )
                b_arr = np.array([bs[j]])

                def loss_b():
                    trial_bs = list(bs)
                    trial_bs[j] = float(b_arr[0])
                    probs = one_row_probs(
                        h, AffineHead(a, c), [(e, b) for e, b in zip(es, trial_bs)]
                    )
                    return -np.log(probs[gold])

                np.testing.assert_allclose(
                    db, numerical_gradient(loss_b, b_arr)[0], rtol=1e-4, atol=1e-7
                )

    def test_probability_identity(self):
        # Sum over candidates of the bias gradients is p - onehot, which sums
        # to zero; the gold's bias gradient is its probability minus one.
        rng = np.random.default_rng(9)
        h = rng.standard_normal(3)
        cands = [(rng.standard_normal(3), 0.0) for _ in range(4)]
        grads = head_gradients(h, AffineHead.identity(3), cands, gold=2)
        total = sum(db for _, db in grads.cands)
        assert total == pytest.approx(0.0, abs=1e-12)
        assert grads.cands[2][1] == pytest.approx(grads.probs[2] - 1.0, abs=1e-12)

    def test_underflowing_gold_probability_gives_a_finite_loss(self):
        # p(gold) = exp(-2000) is 0 in float64, so -log p(gold) would be
        # infinite; the loss is logsumexp(logits) - logit(gold) instead.
        cands = [(np.array([1.0]), 0.0), (np.array([-1.0]), 0.0)]
        grads = head_gradients(np.array([1000.0]), AffineHead.identity(1), cands, 1)
        logits = np.array([1000.0, -1000.0])
        assert grads.probs[1] == 0.0
        assert grads.loss == np.logaddexp.reduce(logits) - logits[1] == 2000.0


class TestReferenceScorer:
    def test_mask_state_is_leave_one_out_at_mask(self):
        scorer = ReferenceScorer(WP)
        seq = seq_of(
            Token.wordpiece("the"), Token.mask(), Token.wordpiece("cat")
        )
        # Embeddings: the=e1, [MASK]=0, cat=e2; LOO mean at the mask is
        # (e1 + e2) / 2.
        np.testing.assert_allclose(
            scorer.mask_state(seq), [0.5, 0.5, 0.0, 0.0], atol=1e-12
        )

    def test_mask_state_is_bitwise_the_contextualized_mask(self):
        # Only the mask's vector is built, in the arithmetic of the
        # whole-sequence contextualization; non-dyadic values round.
        rng = np.random.default_rng(31)
        wp = make_space(
            ["[MASK]", "a", "b", "c"], rng.standard_normal((4, 19)),
            SpaceKind.WORDPIECE,
        )
        scorer = ReferenceScorer(wp)
        words = [Token.wordpiece(w) for w in rng.choice(["a", "b", "c"], 40)]
        for pos in (0, 7, 40):
            seq = seq_of(*words[:pos], Token.mask(), *words[pos:])
            expected = scorer.contextualize(scorer.embed(seq))[pos]
            assert np.array_equal(scorer.mask_state(seq), expected)
        assert np.array_equal(scorer.mask_state(seq_of(Token.mask())), np.zeros(19))

    def test_mask_state_requires_exactly_one_mask(self):
        scorer = ReferenceScorer(WP)
        with pytest.raises(ValueError, match="exactly one mask"):
            scorer.mask_state(seq_of(Token.wordpiece("the")))
        with pytest.raises(ValueError, match="exactly one mask"):
            scorer.mask_state(seq_of(Token.mask(), Token.mask()))

    def test_emask_counts_as_the_mask_position(self):
        scorer = ReferenceScorer(WP, ENT)
        seq = seq_of(Token.emask(["ENTITY/A"]), Token.wordpiece("the"))
        np.testing.assert_allclose(scorer.mask_state(seq), [1.0, 0.0, 0.0, 0.0])

    def test_score_answers_matches_direct_softmax(self):
        scorer = ReferenceScorer(WP)
        seq = seq_of(Token.wordpiece("the"), Token.mask(), Token.wordpiece("cat"))
        probs = scorer.score_answers([seq], ["the", "cat", "sat"])[0]
        h = scorer.mask_state(seq)
        logits = np.array(
            [WP.row(s).astype(np.float64) @ h for s in ["the", "cat", "sat"]]
        )
        expected = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_score_answers_rejects_unknown_symbol(self):
        scorer = ReferenceScorer(WP)
        seq = seq_of(Token.mask(), Token.wordpiece("the"))
        with pytest.raises(DataError, match="missing from wordpiece space"):
            scorer.score_answers([seq], ["the", "zzz"])

    def test_head_dimension_checked(self):
        with pytest.raises(ValueError, match="head dimension"):
            ReferenceScorer(WP, head=AffineHead.identity(3))


def random_cloze_world(seed, n_words=240, n_questions=150, dim=16):
    """Standard-normal (not dyadic) spaces and head, plus single-mask
    questions of random lengths, so any change in rounding shows."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_words)]
    symbols = ["[MASK]", "[UNK]"] + words
    wp = make_space(
        symbols, rng.standard_normal((len(symbols), dim)), SpaceKind.WORDPIECE
    )
    head = AffineHead(rng.standard_normal((dim, dim)), rng.standard_normal(dim))
    seqs = []
    for _ in range(n_questions):
        toks = [Token.wordpiece(words[i])
                for i in rng.integers(0, n_words, int(rng.integers(1, 7)))]
        toks.insert(int(rng.integers(0, len(toks) + 1)), Token.mask())
        seqs.append(TokenSequence(tuple(toks)))
    return ReferenceScorer(wp, head=head), seqs, words


class TestBatchInvariance:
    @pytest.mark.parametrize("n_answers", [203, 64])
    def test_rows_bit_identical_across_batch_sizes(self, n_answers):
        scorer, seqs, words = random_cloze_world(seed=n_answers)
        answers = words[:n_answers]
        full = scorer.score_answers(seqs, answers)
        assert full.shape == (len(seqs), n_answers)
        for i, seq in enumerate(seqs):
            assert np.array_equal(scorer.score_answers([seq], answers)[0], full[i])
        for start in range(0, len(seqs), 7):
            block = scorer.score_answers(seqs[start : start + 7], answers)
            assert np.array_equal(block, full[start : start + 7])

    def test_empty_batch(self):
        scorer, _, words = random_cloze_world(seed=1)
        assert scorer.score_answers([], words[:5]).shape == (0, 5)

    @pytest.mark.parametrize("k", [1, 3, 10, None])
    def test_stable_top_k_matches_sorted_ranking_with_ties(self, k):
        # Values from a small set plant exact ties in every row; the ranking
        # must break them toward the lower vocabulary id.
        rng = np.random.default_rng(5)
        n_answers = 37
        planted = rng.integers(0, 4, size=(300, n_answers)) / 7.0

        class PlantedScorer:
            def score_answers(self, seqs, symbols):
                return planted[[int(seq.tokens[0].text) for seq in seqs]]

        vocab = Vocabulary([f"a{i}" for i in range(n_answers)])
        seqs = [TokenSequence((Token.wordpiece(str(q)), Token.mask()))
                for q in range(len(planted))]
        rankings = rank_answers(seqs, PlantedScorer(), vocab, k)
        for p, ranking in zip(planted, rankings):
            old = sorted(range(n_answers), key=lambda i: (-p[i], i))[:k]
            assert ranking == [(vocab.symbols[i], float(p[i])) for i in old]


def mask_position(seq):
    return next(
        i for i, t in enumerate(seq.tokens)
        if t.kind in (TokenKind.MASK, TokenKind.EMASK)
    )


def random_mixed_cloze(seed, n_questions=80, dim=13):
    """Standard-normal spaces and head, and single-mask sequences mixing
    wordpieces (some missing from the space, so they embed as [UNK], and
    some separators) and entities around a Mask or an EMask of 1-3 candidates, plus
    length-1 inputs."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(30)]
    pieces = ["[MASK]", "[UNK]", "[CLS]", "[SEP]", "/"] + words
    wp = make_space(
        pieces, rng.standard_normal((len(pieces), dim)), SpaceKind.WORDPIECE
    )
    ents = [f"ENTITY/E{i}" for i in range(12)]
    ent = make_space(
        ents, rng.standard_normal((len(ents), dim)), SpaceKind.WORD_AND_ENTITY
    )
    head = AffineHead(rng.standard_normal((dim, dim)), rng.standard_normal(dim))

    def token():
        kind = int(rng.integers(4))
        if kind == 0:
            return Token.wordpiece(f"oov{rng.integers(3)}")
        if kind == 1:
            return Token.wordpiece(str(rng.choice(["[CLS]", "[SEP]", "/"])))
        if kind == 2:
            return Token.entity(str(rng.choice(ents)))
        return Token.wordpiece(str(rng.choice(words)))

    def emask():
        return Token.emask(
            [str(e) for e in rng.choice(ents, int(rng.integers(1, 4)), replace=False)]
        )

    seqs = [seq_of(Token.mask()), seq_of(emask())]
    for _ in range(n_questions):
        toks = [token() for _ in range(int(rng.integers(0, 9)))]
        mask = emask() if rng.random() < 0.5 else Token.mask()
        toks.insert(int(rng.integers(0, len(toks) + 1)), mask)
        seqs.append(TokenSequence(tuple(toks)))
    rng.shuffle(seqs)
    return ReferenceScorer(wp, ent, head), seqs, words


class TestSingleMaskStatePath:
    """``mask_states`` and ``score_answers`` against the token-by-token
    oracle ``oracles.mask_state``, bit for bit, alone and inside a mixed
    batch."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mask_states_rows_are_the_oracle(self, seed):
        scorer, seqs, _ = random_mixed_cloze(seed)
        tokens = list(dict.fromkeys(t for seq in seqs for t in seq.tokens))
        np.random.default_rng(seed).shuffle(tokens)
        index = {t: k for k, t in enumerate(tokens)}
        inputs = [
            (np.array([index[t] for t in seq.tokens]), mask_position(seq))
            for seq in seqs
        ]
        batch = scorer.mask_states(tokens, inputs)
        assert batch.shape == (len(seqs), scorer.wp.dim)
        for row, seq in zip(batch, seqs):
            expected = mask_state(seq, scorer.wp, scorer.ent)
            own = list(dict.fromkeys(seq.tokens))
            alone = scorer.mask_states(
                own, [(np.array([own.index(t) for t in seq.tokens]), mask_position(seq))]
            )
            assert np.array_equal(row, expected)
            assert np.array_equal(alone[0], expected)
            assert np.array_equal(scorer.mask_state(seq), expected)
        assert any(len(seq.tokens) == 1 for seq in seqs)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_mask_states_rows_do_not_depend_on_the_batch(self, seed):
        # -0.0 entries (and a row of them) in both spaces: a pad row or a
        # sum that started anywhere but +0.0 would show in the bits.
        scorer, seqs, _ = random_mixed_cloze(seed, n_questions=3 * ROW_BLOCK)
        rng = np.random.default_rng(seed)

        def with_negative_zeros(space):
            matrix = space.matrix.copy()
            matrix[rng.random(matrix.shape) < 0.3] = -0.0
            matrix[0] = -0.0
            return make_space(list(space.vocab.symbols), matrix, space.kind)

        scorer = ReferenceScorer(
            with_negative_zeros(scorer.wp), with_negative_zeros(scorer.ent), scorer.head
        )
        # Inputs whose rows are all -0.0 ([MASK] and ENTITY/E0 have row 0),
        # and inputs of up to 60 tokens, so sub-batches pad to other widths.
        seqs += [seq_of(Token.mask(), Token.entity("ENTITY/E0")),
                 seq_of(Token.entity("ENTITY/E0"), Token.emask(["ENTITY/E0"]))]
        words = [t for seq in seqs for t in seq.tokens if t.kind is TokenKind.WORDPIECE]
        seqs += [seq_of(*words[i : i + 6 * i], Token.mask()) for i in range(1, 11)]

        def states(batch):
            tokens = list(dict.fromkeys(t for seq in batch for t in seq.tokens))
            rng.shuffle(tokens)
            index = {t: k for k, t in enumerate(tokens)}
            return scorer.mask_states(tokens, [
                (np.array([index[t] for t in seq.tokens]), mask_position(seq))
                for seq in batch
            ])

        bits = states(seqs).view(np.int64)
        for seq, row in zip(seqs, bits):
            assert np.array_equal(mask_state(seq, scorer.wp, scorer.ent).view(np.int64), row)
        order = rng.permutation(len(seqs))
        cuts = np.sort(rng.choice(np.arange(1, len(seqs)), 8, replace=False))
        for part in np.split(order, cuts):
            assert np.array_equal(states([seqs[i] for i in part]).view(np.int64), bits[part])
        assert any(len(seq.tokens) == 1 for seq in seqs)
        assert np.signbit(scorer.wp.matrix).any() and np.signbit(scorer.ent.matrix).any()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_score_answers_rows_use_the_oracle_states(self, seed):
        class OracleStates(ReferenceScorer):
            def mask_states(self, tokens, inputs):
                seqs = [TokenSequence(tuple(tokens[i] for i in idx)) for idx, _ in inputs]
                return np.array([mask_state(seq, self.wp, self.ent) for seq in seqs]).reshape(
                    len(seqs), self.wp.dim
                )

        scorer, seqs, words = random_mixed_cloze(seed)
        oracle = OracleStates(scorer.wp, scorer.ent, scorer.head)
        full = scorer.score_answers(seqs, words)
        assert np.array_equal(full, oracle.score_answers(seqs, words))
        for i, seq in enumerate(seqs):
            assert np.array_equal(scorer.score_answers([seq], words)[0], full[i])
            assert np.array_equal(oracle.score_answers([seq], words)[0], full[i])

    def test_mask_states_checks_dimensions(self):
        wide = ent_space_with({"ENTITY/A": np.ones(DIM + 1)}, DIM + 1)
        scorer = ReferenceScorer(WP, wide)
        with pytest.raises(ValueError, match="different dimensions"):
            scorer.mask_states(
                [Token.mask(), Token.entity("ENTITY/A")], [(np.array([0, 1]), 0)]
            )
