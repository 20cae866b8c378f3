"""Shared builders for the test suite.

Synthetic embedding values live on a power-of-two grid (multiples of 1/64 in
[-0.5, 0.5]) so that products and short sums are exact in both float32 and
float64; tests can then assert exact recovery instead of budgeting for
storage rounding.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import json
import shutil
import time
from pathlib import Path

import numpy as np

from entkit.cli import main
from entkit.embeddings import EmbeddingSpace, SpaceKind, Vocabulary
from oracles import render

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
_BENCH = Path(__file__).resolve().parent.parent / "bench"

ACCEPTANCE_RESULTS: list[str] = []
_SESSION_T0 = time.perf_counter()

SUITE_TIME_BUDGET = 60.0


def record_criterion(line: str) -> None:
    ACCEPTANCE_RESULTS.append(line)


def pytest_sessionstart(session):
    global _SESSION_T0
    _SESSION_T0 = time.perf_counter()


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
        elapsed = time.perf_counter() - _SESSION_T0
        status = "PASS" if elapsed < SUITE_TIME_BUDGET else "FAIL"
        terminalreporter.write_line(
            f"{status} suite runtime: {elapsed:.1f}s "
            f"(budget {SUITE_TIME_BUDGET:.0f}s)"
        )


def make_space(symbols, matrix, kind) -> EmbeddingSpace:
    m = np.asarray(matrix, dtype=np.float64)
    return EmbeddingSpace(Vocabulary(list(symbols)), m.shape[1], m, kind)


def grid_values(rng: np.random.Generator, *shape) -> np.ndarray:
    """Exactly representable random values: k/64 for k in [-32, 32]."""
    return rng.integers(-32, 33, size=shape).astype(np.float64) / 64.0


def paired_spaces(seed: int, d_src: int, d_tgt: int, n_shared: int,
                  noise: float = 0.0, n_entities: int = 0):
    """A word space, a wordpiece space over the same words, and the exact
    linear map W* that sends the first onto the second (before noise)."""
    rng = np.random.default_rng(seed)
    x = grid_values(rng, n_shared, d_src)
    w_star = grid_values(rng, d_tgt, d_src)
    y = x @ w_star.T
    if noise:
        y = y + noise * rng.standard_normal((n_shared, d_tgt))
    words = [f"w{i}" for i in range(n_shared)]
    ents = [f"ENTITY/E{i}" for i in range(n_entities)]
    ent_rows = (
        grid_values(rng, n_entities, d_src)
        if n_entities
        else np.zeros((0, d_src))
    )
    wiki = make_space(
        words + ents, np.vstack([x, ent_rows]), SpaceKind.WORD_AND_ENTITY
    )
    wp = make_space(words, y, SpaceKind.WORDPIECE)
    return wiki, wp, w_star


def normal_equations(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Brute-force least-squares solution W = argmin ||x W^T - y||^2."""
    return np.linalg.solve(x.T @ x, x.T @ y).T


# Wordpiece vocabulary sufficient for any linking/cloze input over the given
# extra words: the separator pieces the input builders emit plus [MASK]/[UNK],
# embedded as zero unless a row is supplied.
SPECIAL_PIECES = ["[CLS]", "[SEP]", "[UNK]", "[MASK]", "/", "*"]


def wp_space_with(words: dict[str, np.ndarray] | dict[str, list], dim: int):
    symbols = list(SPECIAL_PIECES)
    rows = [np.zeros(dim) for _ in SPECIAL_PIECES]
    for sym, row in words.items():
        symbols.append(sym)
        rows.append(np.asarray(row, dtype=np.float64))
    return make_space(symbols, np.vstack(rows), SpaceKind.WORDPIECE)


def ent_space_with(entities: dict[str, np.ndarray] | dict[str, list], dim: int):
    if not entities:
        return make_space([], np.zeros((0, dim)), SpaceKind.WORD_AND_ENTITY)
    symbols = list(entities)
    rows = np.vstack([np.asarray(entities[s], dtype=np.float64) for s in symbols])
    return make_space(symbols, rows, SpaceKind.WORD_AND_ENTITY)


class TableScorer:
    """Stub scorer: ranks answers by a per-word preference table.

    The first rendered token found in the table decides the ranking; weights
    are powers of two so every ranking is strict and exact.
    """

    def __init__(self, vocab: Vocabulary, rank_table: dict[str, list[str]]):
        self.wp_vocab = vocab
        self.rank_table = rank_table

    def score_answers(self, seqs, symbols) -> np.ndarray:
        return np.array(
            [self._score_one(seq, symbols) for seq in seqs], dtype=np.float64
        ).reshape(len(seqs), len(symbols))

    def _score_one(self, seq, symbols) -> np.ndarray:
        order = None
        for text in render(seq):
            if text in self.rank_table:
                order = self.rank_table[text]
                break
        if order is None:
            order = list(symbols)
        rank = {s: i for i, s in enumerate(order)}
        weights = np.array(
            [2.0 ** -rank.get(s, len(order)) for s in symbols], dtype=np.float64
        )
        return weights / weights.sum()


def random_uhn_fixture(seed=0, per_relation=50):
    """Randomized four-relation cloze dataset for filter-property tests.

    About 30% of subjects embed their answer verbatim; one relation is not
    eligible for the name probe. Returns (dataset, templates, scorer,
    answer_vocab).
    """
    from entkit.lama_bench import KbTriple, RelationTemplate

    rng = np.random.default_rng(seed)
    answers = ["french", "paris", "oslo", "tokyo", "lima", "cairo"]
    pool = [
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
        "theta", "iota", "kappa",
    ] + answers
    rank_table = {
        w: [answers[i] for i in rng.permutation(len(answers))] for w in pool
    }
    templates = {
        "R0": RelationTemplate("R0", "[X] speaks [MASK].", name_noun="language"),
        "R1": RelationTemplate("R1", "[X] lives in [MASK].", name_noun="city"),
        "R2": RelationTemplate("R2", "[X] likes [MASK]."),
        "R3": RelationTemplate("R3", "[X] rules [MASK].", name_noun="country"),
    }
    dataset = {}
    for rel in templates:
        triples = []
        for _ in range(per_relation):
            n_words = int(rng.integers(1, 4))
            words = [pool[int(rng.integers(0, len(pool)))] for _ in range(n_words)]
            obj = answers[int(rng.integers(0, len(answers)))]
            if rng.random() < 0.3:
                words.insert(int(rng.integers(0, len(words) + 1)), obj)
            triples.append(KbTriple(rel, " ".join(words), obj))
        dataset[rel] = triples
    scorer = TableScorer(Vocabulary(pool), rank_table)
    return dataset, templates, scorer, Vocabulary(answers)


def flat_linking_world(n_spans: int):
    """``n_spans`` single-token mentions with one zero-vector candidate each,
    plus a matching scorer; under a zero head every span scores identically."""
    from entkit.entity_linking import Candidate
    from entkit.scorer import ReferenceScorer

    words = [f"w{i}" for i in range(n_spans)]
    wp = wp_space_with({w: [0.0, 0.0] for w in words}, 2)
    ent = ent_space_with(
        {f"ENTITY/E{i}": [0.0, 0.0] for i in range(n_spans)}, 2
    )
    table = {f"w{i}": (Candidate(f"ENTITY/E{i}", 1.0),) for i in range(n_spans)}
    scorer = ReferenceScorer(wp, ent)
    return words, table, scorer


def span_posterior(h, head, candidates, space, eps) -> np.ndarray:
    """One span's posterior over its candidates plus the null entity (last
    index) at state ``h``: ``candidate_groups`` and ``candidate_probs`` with
    a batch of one."""
    from entkit.entity_linking import candidate_groups
    from entkit.scorer import candidate_probs

    u = head.apply(np.asarray(h, dtype=np.float64)[None])
    return candidate_probs(u, candidate_groups([candidates], space), (eps.e, eps.b))[0][0]


@functools.cache
def bench_module(name: str):
    """``bench/<name>.py``, loaded once per test run under another name, so
    that a script's ``main`` does not run."""
    spec = importlib.util.spec_from_file_location(f"entkit_bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_world(root: Path, workload: str, seed: int) -> Path:
    """Write the tiny ``workload`` world of ``seed`` under ``root`` with the
    benchmark's world generator."""
    bench_module("world").make_world(root, workload, seed, "tiny")
    return root


def run_world(world: Path, out: Path):
    """Run every command of ``world`` in process under ``out``, as the
    benchmark does: the files the commands resume from are copied first,
    and each command's stdout goes to its ``stdout`` file. Yields each
    command and its exit code as it finishes."""
    commands = json.loads((world / "world.json").read_text(encoding="utf-8"))["commands"]
    for cmd in commands:
        (out / cmd["dir"]).mkdir(parents=True, exist_ok=True)
        for src, dst in cmd.get("copy", {}).items():
            shutil.copyfile(world / src, out / dst)
    for cmd in commands:
        argv = [a.replace("{W}", str(world)).replace("{O}", str(out)) for a in cmd["argv"]]
        with open(out / cmd["dir"] / "stdout", "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            code = main(argv)
        yield cmd, code
