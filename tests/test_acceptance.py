"""Acceptance gate: the toolkit's published behavioral guarantees.

Each test verifies one numbered guarantee end to end and reports a PASS/FAIL
line in the terminal summary (see conftest). Tolerances are part of the
contract and are asserted exactly as stated.
"""

import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import entkit

from conftest import (
    FIXTURES,
    TableScorer,
    ent_space_with,
    flat_linking_world,
    grid_values,
    normal_equations,
    paired_spaces,
    random_uhn_fixture,
    record_criterion,
    span_posterior,
    wp_space_with,
)
from oracles import alignment_objective, head_gradients, person_name_filter
from entkit.alignment import fit_alignment
from entkit.cli import main as cli_main
from entkit.embeddings import Vocabulary, shared_vocabulary
from entkit.entity_linking import (
    Candidate,
    Document,
    GoldAnnotation,
    NullEntityParams,
    SpanState,
    build_training_examples,
    generate_candidates,
    iterative_refine,
    strong_match_f1,
    train_linker,
)
from entkit.lama_bench import (
    KbTriple,
    RelationTemplate,
    build_lama_uhn,
    hits_at_k,
    string_match_filter,
)
from entkit.scorer import AffineHead, ReferenceScorer
from entkit.wikidata_client import (
    FixtureTransport,
    ResolutionStatus,
    resolve_surface,
)


def criterion(number: int, name: str):
    """Record a PASS/FAIL summary line for one acceptance criterion."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_criterion(f"FAIL criterion {number:2d}: {name}")
                raise
            record_criterion(f"PASS criterion {number:2d}: {name}")

        return wrapper

    return decorate


def seed_dims():
    """20 seeds with dimensions spread over 8..32."""
    return [(seed, 8 + (seed * 24) // 19) for seed in range(20)]


@criterion(1, "alignment recovery: exact on noiseless, oracle-equal on noisy")
def test_criterion_01_alignment_recovery():
    start = time.perf_counter()
    for seed, d in seed_dims():
        n = 2 * d + 5
        wiki, wp, w_star = paired_spaces(seed, d, d, n)
        amap = fit_alignment(wiki, wp, shared_vocabulary(wp, wiki))
        assert np.max(np.abs(amap.w - w_star)) < 1e-6

        wiki_n, wp_n, _ = paired_spaces(seed, d, d, n, noise=1e-3)
        pairs = shared_vocabulary(wp_n, wiki_n)
        amap_n = fit_alignment(wiki_n, wp_n, pairs)
        x = wiki_n.matrix[[p.wiki_id for p in pairs]]
        y = wp_n.matrix[[p.wp_id for p in pairs]]
        assert np.max(np.abs(amap_n.w - normal_equations(x, y))) < 1e-8
    assert time.perf_counter() - start < 5.0


@criterion(2, "alignment optimality against 100 random perturbations per seed")
def test_criterion_02_alignment_optimality():
    for seed, d in seed_dims():
        n = 2 * d + 5
        wiki, wp, _ = paired_spaces(seed, d, d, n, noise=1e-3)
        pairs = shared_vocabulary(wp, wiki)
        amap = fit_alignment(wiki, wp, pairs)
        fitted = alignment_objective(amap.w, wiki, wp, pairs)
        rng = np.random.default_rng(1000 + seed)
        for _ in range(100):
            perturbed = amap.w + 1e-3 * rng.standard_normal(amap.w.shape)
            assert fitted <= alignment_objective(perturbed, wiki, wp, pairs) + 1e-12


@criterion(3, "name filter stage 1: string-match examples and monotone subsets")
def test_criterion_03_string_match_heuristic():
    deletions = [
        ("Fiat Multipla", "Fiat"),
        ("Christmas Island", "Christmas"),
        ("Australian Senate", "Australia"),
    ]
    for sub, obj in deletions:
        assert string_match_filter(KbTriple("R", sub, obj)) is True
    assert string_match_filter(KbTriple("R", "Jean Marais", "French")) is False

    dataset, templates, scorer, answers = random_uhn_fixture(seed=30)
    assert sum(len(t) for t in dataset.values()) == 200
    result = build_lama_uhn(dataset, templates, scorer, answers)
    for rel, triples in dataset.items():
        s1, s2 = result.stage1[rel], result.stage2[rel]

        def is_ordered_subset(sub, seq):
            it = iter(seq)
            return all(any(b is a for b in it) for a in sub)

        assert is_ordered_subset(s1, triples)
        assert is_ordered_subset(s2, s1)


@criterion(4, "name filter stage 2: probe rank decides deletion; top_k=0 disables")
def test_criterion_04_name_probe_heuristic():
    answers = Vocabulary(["gold", "r1", "r2", "r3", "r4"])
    ranks = {
        "AA": ["r1", "r2", "gold", "r3", "r4"],  # answer at rank 3
        "BB": ["r1", "r2", "r3", "gold", "r4"],  # answer at rank 4
        "CC": ["r2", "r1", "r3", "gold", "r4"],  # answer at rank 4
        "DD": ["gold", "r1", "r2", "r3", "r4"],  # answer at rank 1
    }
    scorer = TableScorer(Vocabulary(list(ranks)), ranks)
    template = RelationTemplate("R", "[X] speaks [MASK].", name_noun="language")

    def probe(subject, **kwargs):
        return person_name_filter(
            KbTriple("R", subject, "gold"), template, scorer, answers, **kwargs
        )

    assert probe("AA BB") is True  # first part inside top-3
    assert probe("BB DD") is True  # second part inside top-3
    assert probe("BB CC") is False  # both parts at rank 4
    assert probe("DD", top_k=0) is False  # probe disabled
    assert probe("AA BB", top_k=0) is False


@criterion(5, "hits@k averages within relations before across them")
def test_criterion_05_hits_at_k_macro():
    def ranking_with_gold_at(position):
        order = ["a", "b"]
        order.insert(position, "gold")
        n = len(order)
        return [(s, (n - i) / n) for i, s in enumerate(order)]

    hit, miss = ranking_with_gold_at(0), ranking_with_gold_at(2)
    by_relation = {
        "A": [(hit, "gold"), (miss, "gold")],
        "B": [(hit, "gold"), (hit, "gold"), (hit, "gold")],
    }
    report = hits_at_k(by_relation, 1)
    assert report.overall == pytest.approx(0.75)
    assert report.overall != pytest.approx(4 / 5)  # the micro average

    rng = np.random.default_rng(55)
    symbols = [f"s{i}" for i in range(6)]
    random_fixture = {}
    for rel in ("R0", "R1", "R2"):
        pairs = []
        for _ in range(15):
            perm = list(rng.permutation(symbols))
            ranking = [(s, (len(perm) - i) / len(perm)) for i, s in enumerate(perm)]
            pairs.append((ranking, str(rng.choice(symbols))))
        random_fixture[rel] = pairs
    reports = [hits_at_k(random_fixture, k) for k in range(1, 7)]
    for lo, hi in zip(reports, reports[1:]):
        assert hi.overall >= lo.overall
        for rel in random_fixture:
            assert hi.per_relation[rel] >= lo.per_relation[rel]


@criterion(6, "priors act as logit biases: zero head recovers them exactly")
def test_criterion_06_priors_as_biases():
    dim = 8
    rng = np.random.default_rng(66)
    zero_head = AffineHead.zeros(dim)
    for _ in range(50):
        k = int(rng.integers(1, 9))
        priors = rng.uniform(0.01, 1.0, size=k)
        space = ent_space_with(
            {f"ENTITY/E{i}": rng.standard_normal(dim) for i in range(k)}, dim
        )
        candidates = [Candidate(f"ENTITY/E{i}", float(p)) for i, p in enumerate(priors)]
        eps = NullEntityParams(rng.standard_normal(dim), b=-1e9)
        h = rng.standard_normal(dim)
        dist = span_posterior(h, zero_head, candidates, space, eps)
        np.testing.assert_allclose(dist[:-1], priors / priors.sum(), atol=1e-9)
        assert dist[-1] < 1e-12

    for _ in range(50):
        k = int(rng.integers(2, 7))
        head = AffineHead(rng.standard_normal((dim, dim)), rng.standard_normal(dim))
        space = ent_space_with(
            {f"ENTITY/E{i}": rng.standard_normal(dim) for i in range(k)}, dim
        )
        eps = NullEntityParams(rng.standard_normal(dim), float(rng.standard_normal()))
        h = rng.standard_normal(dim)
        priors = rng.uniform(0.01, 1.0, size=k)
        scale = float(rng.uniform(0.05, 0.95))
        base = [Candidate(f"ENTITY/E{i}", float(p)) for i, p in enumerate(priors)]
        scaled = [Candidate(c.entity, c.prior * scale) for c in base]
        d0 = span_posterior(h, head, base, space, eps)[:-1]
        d1 = span_posterior(h, head, scaled, space, eps)[:-1]
        np.testing.assert_allclose(d0 / d0.sum(), d1 / d1.sum(), atol=1e-9)


def ceil_div(a, b):
    return -(-a // b)


@criterion(7, "refinement decodes ceil(jN/J) cumulatively and never overlaps")
def test_criterion_07_refinement_schedule():
    for n in range(1, 21):
        for j_total in range(1, 6):
            tokens, table, scorer = flat_linking_world(n)
            spans = generate_candidates(tokens, table)
            spans, steps = iterative_refine(
                [(tokens, spans)], scorer, AffineHead.zeros(2),
                NullEntityParams.zeros(2, b=-1e9), iterations=j_total,
            )
            cumulative = 0
            for step in steps:
                cumulative += len(step.decoded)
                assert cumulative == ceil_div(step.iteration * n, j_total)
            assert cumulative == n
            assert all(s.state is SpanState.DECODED for s in spans)

    # Adversarial fixture 1: nested/overlapping candidates over three tokens.
    wp = wp_space_with({w: [0.0, 0.0] for w in ("a", "b", "c")}, 2)
    ent = ent_space_with(
        {f"ENTITY/X{i}": [0.0, 0.0] for i in range(3)}, 2
    )
    table = {
        "a": (Candidate("ENTITY/X0", 1.0),),
        "a b": (Candidate("ENTITY/X1", 1.0),),
        "b c": (Candidate("ENTITY/X2", 1.0),),
    }
    scorer = ReferenceScorer(wp, ent)
    for iterations in (1, 2, 3):
        spans = generate_candidates(["a", "b", "c"], table)
        out, _ = iterative_refine(
            [(["a", "b", "c"], spans)], scorer, AffineHead.zeros(2),
            NullEntityParams.zeros(2, b=-1e9), iterations=iterations,
        )
        decoded = [s for s in out if s.state is SpanState.DECODED]
        assert decoded
        for i, first in enumerate(decoded):
            for second in decoded[i + 1:]:
                assert not first.overlaps(second)

    # Adversarial fixture 2: every 1-gram and 2-gram over six tokens.
    words = [f"t{i}" for i in range(6)]
    wp = wp_space_with({w: [0.0, 0.0] for w in words}, 2)
    table = {}
    names = {}
    for i, w in enumerate(words):
        names[f"G{i}"] = [0.0, 0.0]
        table[w] = (Candidate(f"ENTITY/G{i}", 1.0),)
    for i in range(5):
        names[f"B{i}"] = [0.0, 0.0]
        table[f"{words[i]} {words[i + 1]}"] = (Candidate(f"ENTITY/B{i}", 1.0),)
    ent = ent_space_with({f"ENTITY/{n}": v for n, v in names.items()}, 2)
    scorer = ReferenceScorer(wp, ent)
    spans = generate_candidates(words, table)
    assert len(spans) == 11
    out, _ = iterative_refine(
        [(words, spans)], scorer, AffineHead.zeros(2),
        NullEntityParams.zeros(2, b=-1e9), iterations=2,
    )
    decoded = [s for s in out if s.state is SpanState.DECODED]
    rejected = [s for s in out if s.state is SpanState.REJECTED]
    for i, first in enumerate(decoded):
        for second in decoded[i + 1:]:
            assert not first.overlaps(second)
    # Everything rejected lost to an overlapping decoded span.
    for span in rejected:
        assert any(span.overlaps(d) for d in decoded)


DIM8 = 8


def linking_instance(seed):
    """One random 8-dim training world: two mentions with gold entities and
    one candidate span with none."""
    rng = np.random.default_rng(seed)
    wp = wp_space_with(
        {w: grid_values(rng, DIM8) for w in ("Adams", "visits", "Platt")}, DIM8
    )
    names = ["A1", "A2", "P1", "P2", "V1"]
    ent = ent_space_with(
        {f"ENTITY/{n}": grid_values(rng, DIM8) for n in names}, DIM8
    )
    table = {
        "Adams": (Candidate("ENTITY/A1", 0.6), Candidate("ENTITY/A2", 0.4)),
        "visits": (Candidate("ENTITY/V1", 0.5),),
        "Platt": (Candidate("ENTITY/P1", 0.7), Candidate("ENTITY/P2", 0.3)),
    }
    doc = Document(
        "d0",
        ("Adams", "visits", "Platt"),
        (GoldAnnotation(0, 1, "ENTITY/A1"), GoldAnnotation(2, 3, "ENTITY/P2")),
    )
    examples, dropped = build_training_examples(doc, generate_candidates(doc.tokens, table))
    assert dropped == 0
    head = AffineHead(
        np.eye(DIM8) + 0.1 * rng.standard_normal((DIM8, DIM8)),
        0.1 * rng.standard_normal(DIM8),
    )
    eps = NullEntityParams(0.1 * rng.standard_normal(DIM8), float(rng.uniform(-1, 1)))
    scorer = ReferenceScorer(wp, ent)
    return examples, head, eps, scorer, ent


@criterion(8, "analytic gradients equal finite differences; descent decreases loss")
def test_criterion_08_gradient_correctness():
    delta = 1e-6
    rng = np.random.default_rng(88)

    # Direct head/candidate gradients on 50 random 8-dim scoring instances.
    for _ in range(50):
        k = int(rng.integers(2, 6))
        h = rng.standard_normal(DIM8)
        head = AffineHead(rng.standard_normal((DIM8, DIM8)), rng.standard_normal(DIM8))
        cands = [
            (rng.standard_normal(DIM8), float(rng.standard_normal()))
            for _ in range(k)
        ]
        gold = int(rng.integers(0, k))
        grads = head_gradients(h, head, cands, gold)

        def loss(a, c, cand_list):
            u = a @ h + c
            logits = np.array([e @ u + b for e, b in cand_list])
            logits -= logits.max()
            return float(np.log(np.exp(logits).sum()) - logits[gold])

        def check(analytic, plus, minus):
            numeric = (loss(*plus) - loss(*minus)) / (2 * delta)
            assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-7)

        for i in range(DIM8):
            for j in range(DIM8):
                bump = np.zeros((DIM8, DIM8))
                bump[i, j] = delta
                check(
                    grads.a[i, j],
                    (head.a + bump, head.c, cands),
                    (head.a - bump, head.c, cands),
                )
            bump = np.zeros(DIM8)
            bump[i] = delta
            check(
                grads.c[i],
                (head.a, head.c + bump, cands),
                (head.a, head.c - bump, cands),
            )
        for ci in range(k):
            de, db = grads.cands[ci]
            for i in range(DIM8):
                bump = np.zeros(DIM8)
                bump[i] = delta
                up = [
                    (e + bump, b) if idx == ci else (e, b)
                    for idx, (e, b) in enumerate(cands)
                ]
                down = [
                    (e - bump, b) if idx == ci else (e, b)
                    for idx, (e, b) in enumerate(cands)
                ]
                check(de[i], (head.a, head.c, up), (head.a, head.c, down))
            up = [
                (e, b + delta) if idx == ci else (e, b)
                for idx, (e, b) in enumerate(cands)
            ]
            down = [
                (e, b - delta) if idx == ci else (e, b)
                for idx, (e, b) in enumerate(cands)
            ]
            check(db, (head.a, head.c, up), (head.a, head.c, down))

    # Training gradients, observed through one descent step, on 50 random
    # 8-dim instances; finite differences go through the public loss.
    for trial in range(50):
        examples, head, eps, scorer, ent = linking_instance(trial)
        h1 = AffineHead(head.a.copy(), head.c.copy())
        e1 = NullEntityParams(eps.e.copy(), eps.b)
        train_linker(examples, h1, e1, scorer, epochs=1, step=1.0)
        grad_a = head.a - h1.a
        grad_c = head.c - h1.c
        grad_e = eps.e - e1.e
        grad_b = eps.b - e1.b

        def loss_at(a, c, e, b):
            hh = AffineHead(a.copy(), c.copy())
            ee = NullEntityParams(e.copy(), b)
            return train_linker(examples, hh, ee, scorer, epochs=0)[0]

        coords = [("c", i) for i in range(DIM8)] + [("e", i) for i in range(DIM8)]
        coords += [("b", None)]
        coords += [("a", (i, j)) for i in range(DIM8) for j in range(DIM8)]
        for kind, index in coords:
            a, c, e, b = head.a.copy(), head.c.copy(), eps.e.copy(), eps.b
            if kind == "a":
                bump = np.zeros((DIM8, DIM8))
                bump[index] = delta
                numeric = (loss_at(a + bump, c, e, b) - loss_at(a - bump, c, e, b))
                analytic = grad_a[index]
            elif kind == "c":
                bump = np.zeros(DIM8)
                bump[index] = delta
                numeric = (loss_at(a, c + bump, e, b) - loss_at(a, c - bump, e, b))
                analytic = grad_c[index]
            elif kind == "e":
                bump = np.zeros(DIM8)
                bump[index] = delta
                numeric = (loss_at(a, c, e + bump, b) - loss_at(a, c, e - bump, b))
                analytic = grad_e[index]
            else:
                numeric = (loss_at(a, c, e, b + delta) - loss_at(a, c, e, b - delta))
                analytic = grad_b
            assert analytic == pytest.approx(
                numeric / (2 * delta), rel=1e-4, abs=1e-7
            )

    # Twenty descent steps strictly decrease the loss on a fixed batch.
    examples, head, eps, scorer, ent = linking_instance(999)
    losses = train_linker(examples, head, eps, scorer, epochs=20, step=0.1)
    assert len(losses) == 21
    for before, after in zip(losses, losses[1:]):
        assert after < before


@criterion(9, "strong-match F1: hand values, redirect equivalence, identity")
def test_criterion_09_strong_match_f1():
    golds = [[(0, 1, "ENTITY/A"), (2, 3, "ENTITY/B")]]
    preds = [[(0, 1, "ENTITY/A"), (5, 6, "ENTITY/C")]]
    scores = strong_match_f1(preds, golds)
    assert scores.micro == (0.5, 0.5, 0.5)

    redirects = {"ENTITY/Dave_Platt": "ENTITY/David_Platt"}
    golds = [[(0, 1, "ENTITY/David_Platt")]]
    preds = [[(0, 1, "ENTITY/Dave_Platt")]]
    assert strong_match_f1(preds, golds, redirects).micro == (1.0, 1.0, 1.0)
    assert strong_match_f1(preds, golds).micro.f1 == 0.0

    anns = [[(0, 2, "ENTITY/X")], [(1, 3, "ENTITY/Y"), (4, 5, "ENTITY/Z")]]
    identity = strong_match_f1(anns, anns)
    assert identity.micro == (1.0, 1.0, 1.0)
    assert identity.macro == (1.0, 1.0, 1.0)


WIKI = str(FIXTURES / "wiki.txt")
WP_SPACE = str(FIXTURES / "wordpieces.txt")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_pipeline(root, threads, blas_threads=None):
    """align -> eval-lama -> filter-uhn -> link on the shipped fixtures;
    returns every output file keyed by its pipeline-relative name. Each
    command runs in process or, given ``blas_threads``, as a subprocess
    whose BLAS pools have that many threads."""

    def run(argv):
        if blas_threads is None:
            return cli_main(argv)
        env = {**os.environ, "PYTHONPATH": str(Path(entkit.__file__).resolve().parents[1]),
               **dict.fromkeys(BLAS_THREAD_VARS, str(blas_threads))}
        return subprocess.run([sys.executable, "-m", "entkit", *argv],
                              capture_output=True, env=env).returncode

    root.mkdir(parents=True, exist_ok=True)
    align = root / "align.tsv"
    assert run(["align", "--src", WIKI, "--tgt", WP_SPACE, "--out", str(align)]) == 0

    eval_out = root / "eval.tsv"
    assert run([
        "eval-lama", "--data", str(FIXTURES / "lama"),
        "--templates", str(FIXTURES / "templates.json"),
        "--wp-space", WP_SPACE, "--ent-space", WIKI, "--align", str(align),
        "--mode", "concat", "--answer-vocab", str(FIXTURES / "answers.txt"),
        "--resolutions", str(FIXTURES / "resolutions.tsv"),
        "--out", str(eval_out), "--threads", str(threads),
    ]) == 0

    uhn = root / "uhn"
    assert run([
        "filter-uhn", "--data", str(FIXTURES / "lama"),
        "--templates", str(FIXTURES / "templates.json"),
        "--wp-space", WP_SPACE, "--answer-vocab", str(FIXTURES / "answers.txt"),
        "--out-dir", str(uhn), "--threads", str(threads),
    ]) == 0

    link = root / "link"
    assert run([
        "link", "--docs", str(FIXTURES / "el" / "docs.jsonl"),
        "--table", str(FIXTURES / "el" / "table.tsv"),
        "--redirects", str(FIXTURES / "el" / "redirects.tsv"),
        "--wp-space", WP_SPACE, "--ent-space", WIKI, "--align", str(align),
        "--eval", "--head", "zero", "--eps-bias=-1e9",
        "--out-dir", str(link), "--threads", str(threads),
    ]) == 0

    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@criterion(10, "pipeline byte-identical across runs, --threads and BLAS threads; toy F1 = 1.0")
def test_criterion_10_end_to_end_determinism(tmp_path):
    first = run_pipeline(tmp_path / "run1", threads=1)
    second = run_pipeline(tmp_path / "run2", threads=1)
    threaded = run_pipeline(tmp_path / "run3", threads=4)
    assert first == second
    assert first == threaded
    for blas in (1, 4):
        assert run_pipeline(tmp_path / f"blas{blas}", threads=1, blas_threads=blas) == first

    report = first["link/report.tsv"].decode("utf-8").splitlines()
    assert "micro\t1.000000\t1.000000\t1.000000" in report
    eval_lines = first["eval.tsv"].decode("utf-8").splitlines()
    assert eval_lines[-1] == "ALL\t0\t1.000000\t6"


@criterion(11, "surface resolution: lowest-id tie-break, fixtures, exit code 3")
def test_criterion_11_wikidata_client(tmp_path):
    transport = FixtureTransport.from_json(FIXTURES / "wikidata" / "fixture.json")
    jean = resolve_surface("Jean Marais", transport)
    assert jean.qid == "Q168359"
    assert jean.status is ResolutionStatus.RESOLVED
    assert jean.wikipedia_url == "https://en.wikipedia.org/wiki/Jean_Marais"

    adams = resolve_surface("Tony Adams", transport)
    assert adams.qid == "Q7"  # numerically lowest of {Q42, Q7}
    assert adams.status is ResolutionStatus.AMBIGUOUS_RESOLVED_LOWEST

    out = tmp_path / "res.tsv"
    code = cli_main([
        "resolve", "--surfaces", str(FIXTURES / "wikidata" / "surfaces.txt"),
        "--fixture", str(FIXTURES / "wikidata" / "fixture_down.json"),
        "--out", str(out),
    ])
    assert code == 3
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert rows
    assert all(row.endswith("endpoint_error") for row in rows)
