"""Seeded synthetic worlds for the entkit benchmark, with their oracle.

A world is a directory of inputs in the CLI's own file formats (word2vec
text spaces, alignment files, templates, relation JSON-lines, resolution
TSVs, a SPARQL fixture and cache, a candidate table and documents) plus
``world.json``: the command sequence of one workload, the input properties
the workload is meant to have, and for every command the output the CLI must
produce.

Expected outputs are derived here from the planted structure with an
independent NumPy model of the reference scorer (leave-one-out mean, identity
head, softmax ranking). The model never imports entkit. Every ranking
decision an output depends on is checked to have a margin of at least
``MARGIN`` in logit units, so float rounding in the CLI cannot flip it;
subjects or spans that miss the margin are redrawn.

Vectors are integers in units of 1/128, so the text files are exact in
float32 and a load round trip changes no bit.

    python3 bench/world.py --workload lama --seed 7 --out /tmp/w [--scale tiny]
"""

from __future__ import annotations

import argparse
import json
import math
import string
from pathlib import Path

import numpy as np

SCALE = 128.0
DIM = 64
MARGIN = 1e-9  # float64 rounding in the CLI moves a logit by ~1e-12
WORKLOADS = ("lama", "link", "ingest")

SIZES = {
    "full": {
        "lama": dict(answers=800, questions=600, first_names=80,
                     last_names=200, other_words=200),
        "link": dict(docs=2, pairs_per_doc=40, singles_per_doc=20, topics=8, context_words=40,
                     name_words=120, pairs=160, epochs=8),
        "ingest": dict(answers=300, questions=300, surfaces=3000,
                       shared_words=2000, extra_words=500, entities=30000,
                       table_surfaces=6000, docs=240, pairs_per_doc=3, singles_per_doc=2,
                       topics=8, context_words=40),
    },
    "tiny": {
        "lama": dict(answers=60, questions=60, first_names=16,
                     last_names=30, other_words=30),
        "link": dict(docs=2, pairs_per_doc=8, singles_per_doc=4, topics=4, context_words=10,
                     name_words=30, pairs=30, epochs=3),
        "ingest": dict(answers=40, questions=30, surfaces=80,
                       shared_words=200, extra_words=20, entities=600,
                       table_surfaces=120, docs=10, pairs_per_doc=2, singles_per_doc=1,
                       topics=4, context_words=10),
    },
}

SPECIALS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
PUNCT_PIECES = [".", ":", "/", "#", "$", "*"]
SPECIAL_WORDS = {"[MASK]", "[CLS]", "[SEP]", "[UNK]", "[PAD]"}
PUNCT = set(string.punctuation)
CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
SYLLABLES = [c + v for c in CONSONANTS for v in VOWELS]
PROBE_TEMPLATE = "[X] is a common name in the following {noun}: [MASK]."
URL_PREFIX = "https://en.wikipedia.org/wiki/"

LAMA_RELATIONS = [
    # relation, template, name noun, share of the answer vocabulary
    ("P103", "The native language of [X] is [MASK].", "language", 0.15),
    ("P27", "[X] is a citizen of [MASK].", "country", 0.15),
    ("P176", "[X] is produced by [MASK].", "none", 0.35),
    ("P138", "[X] is named after [MASK].", "none", 0.35),
]
TEMPLATE_WORDS = sorted({
    w for _, t, _, _ in LAMA_RELATIONS for w in t.replace(".", " ").split()
    if w not in ("[X]", "[MASK]")
} | {"is", "a", "common", "name", "in", "the", "following", "language",
     "country", "city"})


# ---------------------------------------------------------------- spaces

class Space:
    """Symbols with integer vectors (units of 1/128), in insertion order."""

    def __init__(self):
        self.symbols: list[str] = []
        self.index: dict[str, int] = {}
        self.rows: list[np.ndarray] = []

    def add(self, symbol: str, vec) -> None:
        if symbol in self.index:
            raise ValueError(f"duplicate symbol {symbol!r}")
        self.index[symbol] = len(self.symbols)
        self.symbols.append(symbol)
        self.rows.append(np.asarray(vec, dtype=np.int64))

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.index

    def extend(self, symbols: list[str], matrix: np.ndarray) -> None:
        for sym, row in zip(symbols, matrix):
            self.add(sym, row)

    def vec(self, symbol: str) -> np.ndarray:
        return self.rows[self.index[symbol]] / SCALE

    def matrix(self) -> np.ndarray:
        return np.asarray(self.rows, dtype=np.int64).reshape(len(self.rows), DIM)


def write_space(space: Space, path: Path) -> None:
    m = space.matrix()
    lo = int(m.min()) if m.size else 0
    table = np.array([repr(k / SCALE) for k in range(lo, int(m.max()) + 1)]
                     if m.size else [], dtype=object)
    cells = table[m - lo].tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(space.symbols)} {DIM}\n")
        for sym, row in zip(space.symbols, cells):
            fh.write(sym + " " + " ".join(row) + "\n")


def signed_permutation(rng) -> tuple[np.ndarray, np.ndarray]:
    perm = rng.permutation(DIM)
    signs = rng.choice([-1, 1], size=DIM)
    return perm, signs


def align_matrix(perm, signs) -> np.ndarray:
    """W = 2 P S: target = W @ source, exact in binary floating point."""
    w = np.zeros((DIM, DIM), dtype=np.int64)
    w[np.arange(DIM), perm] = 2 * signs
    return w


def to_source(target: np.ndarray, perm, signs) -> np.ndarray:
    """Solve W x = target for x, in integer units (target must be even)."""
    if np.any(target % 2):
        raise ValueError("target vectors must have even units")
    x = np.zeros(DIM, dtype=np.int64)
    x[perm] = target // 2 * signs
    return x


def write_alignment(w: np.ndarray, path: Path, shared_count: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{DIM} {DIM} {0.0!r} {shared_count}\n")
        for row in w:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def even(rng, bound: int, size=DIM) -> np.ndarray:
    """Random even integers in [-bound, bound]."""
    return 2 * rng.integers(-bound // 2, bound // 2 + 1, size=size)


def pseudo_words(rng, n: int, syllables=(2, 3), capital=False, avoid=()) -> list[str]:
    out: list[str] = []
    seen = set(avoid)
    while len(out) < n:
        k = int(rng.integers(syllables[0], syllables[1] + 1))
        w = "".join(SYLLABLES[i] for i in rng.integers(len(SYLLABLES), size=k))
        if capital:
            w = w.capitalize()
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def base_wordpieces(rng) -> Space:
    """Specials, punctuation, template words and every syllable piece."""
    wp = Space()
    for s in SPECIALS + PUNCT_PIECES:
        wp.add(s, even(rng, 8))
    for w in TEMPLATE_WORDS:
        wp.add(w, even(rng, 8))
    for syl in SYLLABLES:
        wp.add(syl.capitalize(), even(rng, 24))
        wp.add("##" + syl, even(rng, 24))
    return wp


# ---------------------------------------------------------------- model

def punct_units(word: str, vocab) -> list[str]:
    if word in vocab or word in SPECIAL_WORDS:
        return [word]
    units, buf = [], ""
    for ch in word:
        if ch in PUNCT:
            if buf:
                units.append(buf)
                buf = ""
            units.append(ch)
        else:
            buf += ch
    return units + ([buf] if buf else [])


def greedy_pieces(word: str, vocab) -> list[str]:
    if word in vocab:
        return [word]
    pieces, start = [], 0
    while start < len(word):
        for end in range(len(word), start, -1):
            sub = word[start:end] if start == 0 else "##" + word[start:end]
            if sub in vocab:
                pieces.append(sub)
                start = end
                break
        else:
            return ["[UNK]"]
    return pieces


def word_pieces(word: str, vocab) -> list[str]:
    return [p for u in punct_units(word, vocab) for p in greedy_pieces(u, vocab)]


def mask_state(vectors: list[np.ndarray], mask_pos: int) -> np.ndarray:
    total = np.sum(vectors, axis=0) - vectors[mask_pos]
    return total / (len(vectors) - 1)


def question_state(template: str, subject: str, wp: Space, entity=None,
                   mode: str = "bert") -> np.ndarray:
    """Mask state of a rendered cloze question (entity: target vector)."""
    words = template.replace("[X]", " [X] ").replace("[MASK]", " [MASK] ").split()
    xi = words.index("[X]")
    sub_words = subject.split()
    vecs = [wp.vec("[CLS]")]
    mask_pos = -1
    for i, w in enumerate(words):
        if i == xi:
            if mode != "bert" and entity is not None:
                vecs.append(entity)
                if mode == "concat":
                    vecs.append(wp.vec("/"))
                    vecs += [wp.vec(p) for sw in sub_words for p in word_pieces(sw, wp)]
            else:
                vecs += [wp.vec(p) for sw in sub_words for p in word_pieces(sw, wp)]
        elif w == "[MASK]":
            mask_pos = len(vecs)
            vecs.append(wp.vec("[MASK]"))
        else:
            vecs += [wp.vec(p) for p in word_pieces(w, wp)]
    vecs.append(wp.vec("[SEP]"))
    return mask_state(vecs, mask_pos)


def gold_rank(logits: np.ndarray, gold: int, k: int) -> tuple[bool, float]:
    """Is the gold answer in the top k (ties toward lower id), and by how
    much logit it clears or misses the k-th best other answer."""
    others = np.delete(logits, gold)
    kth = np.partition(others, len(others) - k)[len(others) - k]
    return bool(logits[gold] > kth), float(abs(logits[gold] - kth))


def format_hits(per_rel: dict[str, tuple[int, int]], stage: str) -> str:
    lines = ["relation\tstage\thits@1\tquestions"]
    values = {}
    for rel in sorted(per_rel):
        hits, n = per_rel[rel]
        values[rel] = hits / n
        lines.append(f"{rel}\t{stage}\t{values[rel]:.6f}\t{n}")
    overall = sum(values.values()) / len(values)
    total = sum(n for _, n in per_rel.values())
    lines.append(f"ALL\t{stage}\t{overall:.6f}\t{total}")
    return "".join(line + "\n" for line in lines)


def dataset_lines(triples) -> str:
    return "".join(
        json.dumps({"sub_label": s, "obj_label": o}, sort_keys=True,
                   ensure_ascii=False) + "\n"
        for s, o in triples
    )


def write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------- lama

def make_lama(root: Path, rng, size: dict) -> dict:
    answers = pseudo_words(rng, size["answers"], (3, 4), capital=True)
    first = pseudo_words(rng, size["first_names"], (2, 3), capital=True,
                         avoid=answers)
    last = pseudo_words(rng, size["last_names"], (3, 4), capital=True,
                        avoid=answers + first)
    other = pseudo_words(rng, size["other_words"], (2, 3), capital=True,
                         avoid=answers + first + last)
    wp = base_wordpieces(rng)
    for a in answers:
        wp.add(a, even(rng, 64))
    ans_vecs = np.array([wp.vec(a) for a in answers])

    # Answer subsets per relation; a share of first names "tells" an answer
    # of a name relation, so the name probe deletes its questions.
    bounds = np.cumsum([0] + [int(round(s * len(answers))) for *_, s in LAMA_RELATIONS])
    bounds[-1] = len(answers)
    rel_answers = {
        rel: list(range(bounds[i], bounds[i + 1]))
        for i, (rel, *_rest) in enumerate(LAMA_RELATIONS)
    }
    telling: dict[str, int] = {}
    name_rels = [rel for rel, _, noun, _ in LAMA_RELATIONS if noun != "none"]
    for i, f in enumerate(first):
        if i % 2 == 0:
            rel = name_rels[(i // 2) % len(name_rels)]
            a = int(rng.choice(rel_answers[rel]))
            telling[f] = a
            wp.add(f, 3 * (wp.rows[wp.index[answers[a]]] // 2) + even(rng, 8))
        else:
            wp.add(f, even(rng, 24))

    probe_cache: dict[tuple[str, str], np.ndarray] = {}

    def probe_logits(part, noun):
        """Answer logits of the name probe; a probe depends only on
        (part, noun)."""
        key = (part, noun)
        if key not in probe_cache:
            h = question_state(PROBE_TEMPLATE.format(noun=noun), part, wp)
            probe_cache[key] = ans_vecs @ h
        return probe_cache[key]

    perm, signs = signed_permutation(rng)
    wiki = Space()
    for w in TEMPLATE_WORDS:
        wiki.add(w, even(rng, 8))
    used_subjects: set[str] = set()
    triples: dict[str, list[tuple[str, str]]] = {}
    resolved: dict[str, np.ndarray] = {}  # surface -> derived entity vector
    stats = dict(questions=0, resolved=0, substring_planted=0, telling_planted=0)
    parts_seen: list[str] = []
    per_rel = size["questions"] // len(LAMA_RELATIONS)
    for rel, template, noun, _ in LAMA_RELATIONS:
        # Exact quotas, so every seed plants the same amount of each case.
        kinds = ["substring"] * round(0.08 * per_rel)
        if noun != "none":
            kinds += ["telling"] * round(0.3 * per_rel)
        kinds += ["plain"] * (per_rel - len(kinds))
        kinds = [kinds[i] for i in rng.permutation(per_rel)]
        is_resolved = rng.permutation(per_rel) < round(0.75 * per_rel)
        tellers = [f for f, a in telling.items() if a in rel_answers[rel]]
        rows = []
        while len(rows) < per_rel:
            kind, resolved_now = kinds[len(rows)], bool(is_resolved[len(rows)])
            if kind == "telling":
                f = tellers[int(rng.integers(len(tellers)))]
                gold = telling[f]
                sub = f"{f} {rng.choice(last)}"
            else:
                gold = int(rng.choice(rel_answers[rel]))
                if kind == "substring":
                    sub = f"{answers[gold]} {rng.choice(last)}"
                elif noun != "none":
                    f = rng.choice([f for f in first if telling.get(f) != gold])
                    sub = f"{f} {rng.choice(last)}"
                else:
                    sub = f"{rng.choice(other)} {rng.choice(other)}"
            if sub in used_subjects:
                continue
            gold_word = answers[gold]
            entity = 3 * wp.rows[wp.index[gold_word]] + even(rng, 8)
            ok = all(
                gold_rank(probe_logits(part, noun), gold, 3)[1] >= MARGIN
                for part in sub.split()
            ) if noun != "none" else True
            for mode in ("concat", "bert"):
                h = question_state(template, sub, wp, entity / SCALE if resolved_now else None, mode)
                hit, margin = gold_rank(ans_vecs @ h, gold, 1)
                if margin < MARGIN or (mode == "concat" and resolved_now and not hit):
                    ok = False
            if not ok:
                continue
            used_subjects.add(sub)
            rows.append((sub, gold_word))
            stats["questions"] += 1
            stats["substring_planted"] += kind == "substring"
            stats["telling_planted"] += kind == "telling"
            if noun != "none":
                parts_seen += sub.split()
            if resolved_now:
                resolved[sub] = entity
                stats["resolved"] += 1
        triples[rel] = rows

    answer_id = {a: i for i, a in enumerate(answers)}
    concat_hits, stage1, stage2, stats_lines = {}, {}, {}, ["relation\tstage\tquestions"]
    bert_hits = {}
    probes, probed = 0, set()
    for rel, template, noun, _ in LAMA_RELATIONS:
        rows = triples[rel]
        hits = 0
        for sub, obj in rows:
            ent = resolved.get(sub)
            h = question_state(template, sub, wp, None if ent is None else ent / SCALE, "concat")
            hits += gold_rank(ans_vecs @ h, answer_id[obj], 1)[0]
        concat_hits[rel] = (hits, len(rows))
        s1 = [(s, o) for s, o in rows if o.lower() not in s.lower()]
        s2 = []
        for s, o in s1:
            deleted = False
            if noun != "none":
                for part in s.split():
                    probes += 1
                    probed.add((part, noun))
                    if gold_rank(probe_logits(part, noun), answer_id[o], 3)[0]:
                        deleted = True
                        break
            if not deleted:
                s2.append((s, o))
        stage1[rel], stage2[rel] = s1, s2
        if s2:
            bh = sum(
                gold_rank(ans_vecs @ question_state(template, s, wp), answer_id[o], 1)[0]
                for s, o in s2
            )
            bert_hits[rel] = (bh, len(s2))

    for rel in sorted(triples):
        for stage, rows in enumerate((triples, stage1, stage2)):
            stats_lines.append(f"{rel}\t{stage}\t{len(rows[rel])}")

    data = root / "data"
    for rel, rows in triples.items():
        write_text(data / f"{rel}.jsonl", dataset_lines(rows))
    write_text(root / "templates.json", json.dumps(
        [{"relation": r, "template": t, "name_noun": n} for r, t, n, _ in LAMA_RELATIONS],
        indent=1) + "\n")
    write_text(root / "answers.txt", "".join(a + "\n" for a in answers))
    write_space(wp, root / "wp.txt")
    res_lines = []
    qid = 1000
    for rel, rows in triples.items():
        for sub, _ in rows:
            qid += 1
            if sub in resolved:
                title = sub.replace(" ", "_")
                res_lines.append(f"{sub}\tQ{qid}\t{URL_PREFIX}{title}\n")
                wiki.add("ENTITY/" + title, to_source(resolved[sub], perm, signs))
            elif qid % 3 == 0:
                res_lines.append(f"{sub}\t\t\n")  # a cached not-found
    write_text(root / "resolutions.tsv", "".join(res_lines))
    write_space(wiki, root / "wiki.txt")
    write_alignment(align_matrix(perm, signs), root / "align.txt", DIM)

    stats_text = "".join(line + "\n" for line in stats_lines)
    exp = root / "expected"
    write_text(exp / "concat" / "report.tsv", format_hits(concat_hits, "0"))
    for stage, ds in (("stage0", triples), ("stage1", stage1), ("stage2", stage2)):
        for rel, rows in ds.items():
            write_text(exp / "uhn" / stage / f"{rel}.jsonl", dataset_lines(rows))
    write_text(exp / "uhn" / "stats.tsv", stats_text)
    write_text(exp / "uhn" / "stdout", stats_text)
    write_text(exp / "stage2" / "report.tsv", format_hits(bert_hits, "2"))

    eligible = [rel for rel, _, noun, _ in LAMA_RELATIONS if noun != "none"]
    common = ["--templates", "{W}/templates.json", "--wp-space", "{W}/wp.txt",
              "--answer-vocab", "{W}/answers.txt", "--threads", "1"]
    commands = [
        dict(name="eval-lama-concat", kind="eval_lama", dir="concat", argv=[
            "eval-lama", "--data", "{W}/data", "--mode", "concat",
            "--ent-space", "{W}/wiki.txt", "--align", "{W}/align.txt",
            "--resolutions", "{W}/resolutions.tsv", "--stage", "0",
            "--out", "{O}/concat/report.tsv"] + common,
            expect={"concat/report.tsv": "concat/report.tsv"},
            metric="eval_questions_per_s", items=stats["questions"]),
        dict(name="filter-uhn", kind="filter_uhn", dir="uhn", argv=[
            "filter-uhn", "--data", "{W}/data", "--out-dir", "{O}/uhn"] + common,
            expect={f"uhn/{p.relative_to(exp / 'uhn')}": f"uhn/{p.relative_to(exp / 'uhn')}"
                    for p in sorted((exp / "uhn").rglob("*")) if p.is_file()},
            metric="filter_questions_per_s",
            items=sum(len(stage1[r]) for r in eligible)),
        dict(name="eval-lama-stage2", kind="eval_lama", dir="stage2", argv=[
            "eval-lama", "--data", "{O}/uhn/stage2", "--mode", "bert",
            "--stage", "2", "--out", "{O}/stage2/report.tsv"] + common,
            expect={"stage2/report.tsv": "stage2/report.tsv"},
            metric="eval_questions_per_s",
            items=sum(len(v) for v in stage2.values())),
    ]
    distinct_parts = len(set(parts_seen))
    props = dict(
        questions=stats["questions"], answers=len(answers),
        relations=len(LAMA_RELATIONS), name_relations=len(eligible),
        resolved_share=stats["resolved"] / stats["questions"],
        substring_planted=stats["substring_planted"],
        telling_first_name_planted=stats["telling_planted"],
        name_part_occurrences=len(parts_seen),
        name_part_repeated_share=1 - distinct_parts / len(parts_seen),
        stage_counts={rel: [len(triples[rel]), len(stage1[rel]), len(stage2[rel])]
                      for rel in triples},
        name_probes=probes, distinct_probe_pairs=len(probed),
    )
    return dict(commands=commands, properties=props)


# ---------------------------------------------------------------- linking

def link_vectors(wp: Space, doc_tokens):
    """Per-token piece sums and counts for a document."""
    sums, counts = [], []
    for tok in doc_tokens:
        pieces = word_pieces(tok, wp)
        sums.append(np.sum([wp.vec(p) for p in pieces], axis=0))
        counts.append(len(pieces))
    return np.array(sums), np.array(counts)


def generate_spans(tokens, table, max_span=7):
    spans = []
    for s in range(len(tokens)):
        for e in range(s + 1, min(s + max_span, len(tokens)) + 1):
            cands = table.get(" ".join(tokens[s:e]))
            if cands:
                spans.append((s, e, cands))
    return spans


def simulate_refine(tokens, table, wp: Space, ent: dict, iterations=3):
    """The CLI's iterative decoding with the identity head and a suppressed
    null entity: every undecided span is selectable, and ties on the null
    probability (all 0.0) order spans by (start, end).

    Returns the decoded spans, the per-round log, the number of spans
    generated and scored, and the smallest top-two logit gap seen.
    """
    sums, counts = link_vectors(wp, tokens)
    base = wp.vec("[CLS]") + wp.vec("[SEP]") + wp.vec("/") + wp.vec("*") + sums.sum(axis=0)
    base_n = 4 + int(counts.sum())
    prefix = np.vstack([np.zeros(DIM), np.cumsum(sums, axis=0)])
    cprefix = np.concatenate([[0], np.cumsum(counts)])
    spans = generate_spans(tokens, table)
    state = ["undecided"] * len(spans)
    choice: list[str | None] = [None] * len(spans)
    steps, scorings, min_gap = [], 0, math.inf
    for j in range(1, iterations + 1):
        dec = [i for i, st in enumerate(state) if st == "decoded"]
        und = [i for i, st in enumerate(state) if st == "undecided"]
        if not und:
            break
        # A decoded span fully left or right of the scored span renders as
        # its entity token; otherwise its words stay as wordpieces.
        d_start = np.array([spans[i][0] for i in dec], dtype=np.int64)
        d_end = np.array([spans[i][1] for i in dec], dtype=np.int64)
        d_delta = np.array([ent[choice[i]] - (prefix[spans[i][1]] - prefix[spans[i][0]])
                            for i in dec]).reshape(len(dec), DIM)
        d_cdelta = np.array([1 - (cprefix[spans[i][1]] - cprefix[spans[i][0]])
                             for i in dec], dtype=np.int64)
        best: dict[int, str] = {}
        for i in und:
            s, e, cands = spans[i]
            use = (d_end <= s) | (d_start >= e)
            total = base + use.astype(float) @ d_delta
            n = base_n + int(d_cdelta[use].sum()) + 1
            h = total / (n - 1)
            logits = np.array([ent[c] @ h + math.log(p) for c, p in cands])
            order = np.argsort(-logits, kind="stable")
            if len(cands) > 1:
                min_gap = min(min_gap, float(logits[order[0]] - logits[order[1]]))
            best[i] = cands[int(order[0])][0]
            scorings += 1
        m, n_sel = len(dec), len(und)
        quota = max(0, -((-j * (m + n_sel)) // iterations) - m)
        fixed, accepted = [], []
        for i in sorted(und, key=lambda i: (spans[i][0], spans[i][1])):
            if len(accepted) == quota:
                break
            s, e, _ = spans[i]
            if any(s < spans[k][1] and spans[k][0] < e for k in dec + accepted):
                continue
            state[i], choice[i] = "decoded", best[i]
            accepted.append(i)
            fixed.append((s, e, best[i]))
        steps.append((j, n_sel, quota, len(fixed)))
    decoded = sorted((spans[i][0], spans[i][1], choice[i])
                     for i, st in enumerate(state) if st == "decoded")
    return decoded, steps, len(spans), scorings, min_gap


def prf(tp, n_pred, n_gold):
    precision = tp / n_pred if n_pred else (1.0 if n_gold == 0 else 0.0)
    recall = tp / n_gold if n_gold else (1.0 if n_pred == 0 else 0.0)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def link_outputs(docs, table, wp: Space, ent: dict) -> tuple[dict, dict]:
    """Expected predictions.jsonl, iterations.tsv, report.tsv and stdout."""
    pred_lines, iter_lines = [], ["doc_id\titeration\tselectable\tquota\tdecoded"]
    tp = fp = fn = 0
    per_doc = []
    totals = dict(spans=0, scorings=0, decoded=0, min_gap=math.inf)
    for doc in docs:
        decoded, steps, nspans, scorings, gap = simulate_refine(doc["tokens"], table, wp, ent)
        totals["spans"] += nspans
        totals["scorings"] += scorings
        totals["decoded"] += len(decoded)
        totals["min_gap"] = min(totals["min_gap"], gap)
        pred_lines.append(json.dumps({
            "doc_id": doc["doc_id"],
            "predictions": [{"start": s, "end": e, "entity": x} for s, e, x in decoded],
        }, sort_keys=True, ensure_ascii=False))
        iter_lines += [f"{doc['doc_id']}\t{j}\t{sel}\t{q}\t{k}" for j, sel, q, k in steps]
        p = set(decoded)
        g = {(x["start"], x["end"], x["entity"]) for x in doc["golds"]}
        tp += len(p & g)
        fp += len(p - g)
        fn += len(g - p)
        per_doc.append(prf(len(p & g), len(p), len(g)))
    micro = prf(tp, tp + fp, tp + fn)
    macro = tuple(sum(d[i] for d in per_doc) / len(per_doc) for i in range(3))
    report = ["scope\tprecision\trecall\tf1"] + [
        f"{scope}\t{v[0]:.6f}\t{v[1]:.6f}\t{v[2]:.6f}"
        for scope, v in (("micro", micro), ("macro", macro))
    ]

    def text(lines):
        return "".join(line + "\n" for line in lines)

    files = {
        "predictions.jsonl": text(pred_lines),
        "iterations.tsv": text(iter_lines),
        "report.tsv": text(report),
        "stdout": text(report),
    }
    return files, totals


def make_docs(rng, n_docs, n_pairs, n_singles, context, pairs, singles, prefix):
    """Documents of topical context words and planted mentions.

    Every document has exactly ``n_pairs`` two-name and ``n_singles``
    one-name mentions, in random order, each after one or two context words,
    so every seed yields the same document lengths and candidate spans
    (three per two-name mention, one per one-name mention). A document only
    uses mentions with a candidate of its own topic, which is the gold.
    ``pairs`` and ``singles`` hold (surface words, {topic: entity}) pairs.
    """
    docs = []
    topics = len(context)
    for d in range(n_docs):
        topic = d % topics
        pools = {2: [m for m in pairs if topic in m[1]],
                 1: [m for m in singles if topic in m[1]]}
        kinds = [2] * n_pairs + [1] * n_singles
        tokens, golds = [], []
        for i, k in enumerate(rng.permutation(len(kinds))):
            for _ in range(1 + i % 2):
                tokens.append(context[topic][int(rng.integers(len(context[topic])))])
            pool = pools[kinds[k]]
            words, by_topic = pool[int(rng.integers(len(pool)))]
            golds.append({"start": len(tokens), "end": len(tokens) + len(words),
                          "entity": by_topic[topic]})
            tokens += words
        tokens.append(context[topic][int(rng.integers(len(context[topic])))])
        docs.append({"doc_id": f"{prefix}{d:04d}", "tokens": tokens, "golds": golds})
    return docs


def planted_docs(rng, size, context, pairs, singles, prefix, table, wp, ent):
    """Documents and their expected linking outputs, redrawn until every
    candidate choice clears MARGIN."""
    for _ in range(20):
        docs = make_docs(rng, size["docs"], size["pairs_per_doc"], size["singles_per_doc"],
                         context, pairs, singles, prefix)
        files, totals = link_outputs(docs, table, wp, ent)
        if totals["min_gap"] >= MARGIN:
            return docs, files, totals
    raise RuntimeError("no document draw clears the linking margin")


def topic_world(rng, wp: Space, topics: int, n_context: int, avoid):
    """Topic axes and topical context words (0.5 on the topic axis)."""
    axes = rng.choice(DIM, size=topics, replace=False)
    words = pseudo_words(rng, topics * n_context, (2, 3), avoid=avoid)
    context = []
    for t in range(topics):
        group = words[t * n_context:(t + 1) * n_context]
        for w in group:
            v = even(rng, 4)
            v[axes[t]] += 64
            wp.add(w, v)
        context.append(group)
    return axes, context


def candidate_table(rng, names, n_pairs, axes, add_entity):
    """Single-name surfaces plus two-name surfaces over the same names, so
    a two-name mention yields three overlapping candidate spans.

    Each surface has two or three candidates from distinct topics, with
    priors in [0.3, 0.7]; ``add_entity(name, target)`` registers one.
    Returns the table, its TSV rows, the two-name and the one-name mentions.
    """
    topics = len(axes)
    table: dict[str, list[tuple[str, float]]] = {}
    rows: list[str] = []

    def add_surface(surface):
        by_topic = {}
        for t in rng.choice(topics, size=int(rng.integers(2, 4)), replace=False):
            name = f"ENTITY/{surface.replace(' ', '_')}_({t})"
            target = even(rng, 8)
            target[axes[t]] += 512  # 4.0 on the topic axis
            add_entity(name, target)
            prior = round(float(rng.integers(6, 15)) * 0.05, 2)
            table.setdefault(surface, []).append((name, prior))
            rows.append(f"{surface}\t{name}\t{prior}\n")
            by_topic[int(t)] = name
        return by_topic

    singles = [([n], add_surface(n)) for n in names]
    pairs, seen = [], set()
    while len(pairs) < n_pairs:
        a, b = (names[i] for i in rng.integers(len(names), size=2))
        if a != b and (a, b) not in seen:
            seen.add((a, b))
            pairs.append(([a, b], add_surface(f"{a} {b}")))
    return table, rows, pairs, singles


def make_link(root: Path, rng, size: dict) -> dict:
    wp = base_wordpieces(rng)
    axes, context = topic_world(rng, wp, size["topics"], size["context_words"],
                                avoid=TEMPLATE_WORDS)
    names = pseudo_words(rng, size["name_words"], (2, 3), capital=True)
    perm, signs = signed_permutation(rng)
    wiki = Space()
    ent: dict[str, np.ndarray] = {}

    def add_entity(name, target):
        ent[name] = target / SCALE
        wiki.add(name, to_source(target, perm, signs))

    table, rows, pairs, singles = candidate_table(rng, names, size["pairs"], axes, add_entity)
    docs, files, totals = planted_docs(rng, size, context, pairs, singles, "long-",
                                       table, wp, ent)

    write_space(wp, root / "wp.txt")
    write_space(wiki, root / "wiki.txt")
    write_alignment(align_matrix(perm, signs), root / "align.txt", DIM)
    write_text(root / "table.tsv", "".join(rows))
    write_text(root / "docs.jsonl", "".join(
        json.dumps(d, sort_keys=True) + "\n" for d in docs))
    for name, text in files.items():
        write_text(root / "expected" / "eval" / name, text)

    common = ["link", "--docs", "{W}/docs.jsonl", "--table", "{W}/table.tsv",
              "--wp-space", "{W}/wp.txt", "--ent-space", "{W}/wiki.txt",
              "--align", "{W}/align.txt", "--head", "identity", "--threads", "1"]
    commands = [
        dict(name="link-eval", kind="link", dir="eval", argv=common + [
            "--eval", "--eps-bias=-1e9", "--out-dir", "{O}/eval"],
            expect={f"eval/{n}": f"eval/{n}" for n in files},
            metric="link_spans_per_s", items=totals["spans"]),
        dict(name="link-train", kind="link", dir="train", argv=common + [
            "--train", "--epochs", str(size["epochs"]), "--step", "0.05",
            "--out-dir", "{O}/train"],
            train_check={"dir": "train", "epochs": size["epochs"]},
            metric="train_examples_per_s", items=totals["spans"] * size["epochs"]),
    ]
    props = dict(link_properties(docs, totals), table_rows=len(rows),
                 table_surfaces=len(table))
    return dict(commands=commands, properties=props)


def link_properties(docs, totals) -> dict:
    lengths = sorted(len(d["tokens"]) for d in docs)
    return dict(
        docs=len(docs), doc_length_min=lengths[0], doc_length_max=lengths[-1],
        doc_length_median=lengths[len(lengths) // 2],
        candidate_spans=totals["spans"], span_scorings=totals["scorings"],
        spans_decoded=totals["decoded"], golds=sum(len(d["golds"]) for d in docs),
        min_top2_logit_gap=totals["min_gap"],
    )


# ---------------------------------------------------------------- ingest

def make_ingest(root: Path, rng, size: dict) -> dict:
    answers = pseudo_words(rng, size["answers"], (3, 4), capital=True)
    wp = base_wordpieces(rng)
    for a in answers:
        wp.add(a, even(rng, 64))
    ans_vecs = np.array([wp.vec(a) for a in answers])
    axes, context = topic_world(rng, wp, size["topics"], size["context_words"],
                                avoid=TEMPLATE_WORDS)
    topical = [w for group in context for w in group]
    plain = pseudo_words(rng, size["shared_words"] - len(topical), (3, 4),
                         avoid=set(topical) | set(TEMPLATE_WORDS))
    for w in plain:
        wp.add(w, even(rng, 24))
    extra = pseudo_words(rng, size["extra_words"], (4, 5),
                         avoid=set(topical) | set(plain))

    # The word-and-entity space: shared words map exactly through W, so the
    # fitted alignment recovers it; entities far outnumber what runs touch.
    perm, signs = signed_permutation(rng)
    wiki = Space()
    for w in topical + plain:
        wiki.add(w, to_source(wp.rows[wp.index[w]], perm, signs))
    for w in extra:
        wiki.add(w, even(rng, 24))
    ent: dict[str, np.ndarray] = {}

    def add_entity(name, target):
        ent[name] = target / SCALE
        wiki.add(name, to_source(target, perm, signs))

    # Surfaces to resolve: the question subjects plus filler, each planted
    # as unique, ambiguous (lowest id wins), without sitelink, or unknown.
    n_rel = 3
    relations = LAMA_RELATIONS[:n_rel]
    bounds = np.linspace(0, len(answers), n_rel + 1).astype(int)
    names = pseudo_words(rng, size["surfaces"] + size["table_surfaces"], (2, 3),
                         capital=True, avoid=answers)
    surface_names = names[: size["surfaces"]]
    table_names = names[size["surfaces"]:]
    surfaces = [f"{a} {b}" for a, b in zip(surface_names, surface_names[1:] + surface_names[:1])]
    # Exact quotas per group (question subjects, filler), so every seed
    # resolves, misses and appends the same number of surfaces.
    n_q = size["questions"]
    kinds = []
    for n in (n_q, len(surfaces) - n_q):
        group = (["not_found"] * round(0.15 * n) + ["ambiguous"] * round(0.10 * n)
                 + ["no_sitelink"] * round(0.05 * n))
        group += ["unique"] * (n - len(group))
        kinds += [group[i] for i in rng.permutation(n)]
    labels, sitelinks, plan = {}, {}, {}
    for i, (sfc, kind) in enumerate(zip(surfaces, kinds)):
        qid, title = 5000 + 3 * i, sfc.replace(" ", "_")
        if kind == "not_found":
            plan[sfc] = ("not_found", None, None)
            continue
        if kind == "ambiguous":  # the lower id carries the sitelink
            labels[sfc] = [f"Q{qid + 1}", f"Q{qid}"]
            sitelinks[f"Q{qid + 1}"] = URL_PREFIX + title + "_(other)"
        else:
            labels[sfc] = [f"Q{qid}"]
        status = "ambiguous_resolved_lowest" if kind == "ambiguous" else "resolved"
        if kind == "no_sitelink":
            plan[sfc] = (status, f"Q{qid}", None)
        else:
            sitelinks[f"Q{qid}"] = URL_PREFIX + title
            plan[sfc] = (status, f"Q{qid}", URL_PREFIX + title)

    # Questions over the first surfaces; resolvable subjects get an entity
    # that points at the gold answer, the others fall back to wordpieces.
    triples: dict[str, list[tuple[str, str]]] = {rel: [] for rel, *_ in relations}
    subject_entity: dict[str, np.ndarray] = {}
    hits = {rel: 0 for rel in triples}
    for qi, sfc in enumerate(surfaces[:n_q]):
        rel, template, _, _ = relations[qi % n_rel]
        k = qi % n_rel
        url = plan[sfc][2]
        while True:
            gold = int(rng.integers(bounds[k], bounds[k + 1]))
            target = 3 * wp.rows[wp.index[answers[gold]]] + even(rng, 8)
            h = question_state(template, sfc, wp, target / SCALE if url else None, "replace")
            hit, margin = gold_rank(ans_vecs @ h, gold, 1)
            if margin >= MARGIN and (hit or not url):
                break
        if url:
            subject_entity[sfc] = target
        triples[rel].append((sfc, answers[gold]))
        hits[rel] += hit
    for sfc, (_, _, url) in plan.items():
        if url:
            title = "ENTITY/" + url[len(URL_PREFIX):]
            target = subject_entity.get(sfc)
            add_entity(title, even(rng, 24) if target is None else target)

    # Candidate table over separate names; documents touch a small part.
    table, rows, pairs, singles = candidate_table(
        rng, table_names, size["table_surfaces"] // 3, axes, add_entity)
    k = max(8, len(pairs) // 20)
    docs, files, totals = planted_docs(rng, size, context, pairs[:k], singles[:k], "short-",
                                       table, wp, ent)
    n_filler = size["entities"] - len(ent)
    wiki.extend([f"ENTITY/Filler_{i}" for i in range(max(0, n_filler))],
                even(rng, 24, size=(max(0, n_filler), DIM)))

    # Expected resolve output and cache: cached surfaces come back as
    # resolved or not_found; the rest are queried and appended in order.
    seed_cache = {surfaces[i] for i in rng.permutation(len(surfaces))[: len(surfaces) // 2]}
    res_lines = ["surface\tqid\turl\tstatus"]
    cache_seed, cache_new = [], []
    for sfc in surfaces:
        status, q, url = plan[sfc]
        line = f"{sfc}\t{q or ''}\t{url or ''}\n"
        if sfc in seed_cache:
            cache_seed.append(line)
            status = "resolved" if q else "not_found"
        else:
            cache_new.append(line)
        res_lines.append(f"{sfc}\t{q or ''}\t{url or ''}\t{status}")
    referenced = {"ENTITY/" + plan[s][2][len(URL_PREFIX):] for s in subject_entity}
    doc_entities = set()
    for d in docs:
        for s, e, cands in generate_spans(d["tokens"], table):
            doc_entities.update(c for c, _ in cands)

    data = root / "data"
    for rel, rows_ in triples.items():
        write_text(data / f"{rel}.jsonl", dataset_lines(rows_))
    write_text(root / "templates.json", json.dumps(
        [{"relation": r, "template": t, "name_noun": n} for r, t, n, _ in relations],
        indent=1) + "\n")
    write_text(root / "answers.txt", "".join(a + "\n" for a in answers))
    write_text(root / "surfaces.txt", "".join(s + "\n" for s in surfaces))
    write_text(root / "fixture.json", json.dumps(
        {"labels": labels, "sitelinks": sitelinks}, sort_keys=True) + "\n")
    write_text(root / "cache_seed.tsv", "".join(cache_seed))
    write_space(wp, root / "wp.txt")
    write_space(wiki, root / "wiki.txt")
    write_text(root / "table.tsv", "".join(rows))
    write_text(root / "docs.jsonl", "".join(
        json.dumps(d, sort_keys=True) + "\n" for d in docs))
    exp = root / "expected"
    write_text(exp / "resolve" / "resolved.tsv", "".join(x + "\n" for x in res_lines))
    write_text(exp / "resolve" / "cache.tsv", "".join(cache_seed + cache_new))
    write_text(exp / "replace" / "report.tsv", format_hits(
        {rel: (hits[rel], len(v)) for rel, v in triples.items()}, "0"))
    for name, text in files.items():
        write_text(exp / "link" / name, text)

    questions = sum(len(v) for v in triples.values())
    commands = [
        dict(name="resolve", kind="resolve", dir="resolve", argv=[
            "resolve", "--surfaces", "{W}/surfaces.txt", "--fixture", "{W}/fixture.json",
            "--cache", "{O}/resolve/cache.tsv", "--out", "{O}/resolve/resolved.tsv"],
            copy={"cache_seed.tsv": "resolve/cache.tsv"},
            expect={"resolve/resolved.tsv": "resolve/resolved.tsv",
                    "resolve/cache.tsv": "resolve/cache.tsv"},
            metric="resolve_surfaces_per_s", items=len(surfaces)),
        dict(name="align", kind="align", dir="align", argv=[
            "align", "--src", "{W}/wiki.txt", "--tgt", "{W}/wp.txt",
            "--out", "{O}/align/align.txt"],
            align_check={"out": "align/align.txt", "shared_count": len(topical) + len(plain),
                         "perm": perm.tolist(), "signs": signs.tolist()},
            metric="align_s", items=None),
        dict(name="eval-lama-replace", kind="eval_lama", dir="replace", argv=[
            "eval-lama", "--data", "{W}/data", "--templates", "{W}/templates.json",
            "--wp-space", "{W}/wp.txt", "--ent-space", "{W}/wiki.txt",
            "--align", "{O}/align/align.txt", "--mode", "replace",
            "--answer-vocab", "{W}/answers.txt", "--resolutions", "{O}/resolve/cache.tsv",
            "--stage", "0", "--threads", "1", "--out", "{O}/replace/report.tsv"],
            expect={"replace/report.tsv": "replace/report.tsv"},
            metric="eval_questions_per_s", items=questions),
        dict(name="link-eval", kind="link", dir="link", argv=[
            "link", "--docs", "{W}/docs.jsonl", "--table", "{W}/table.tsv",
            "--wp-space", "{W}/wp.txt", "--ent-space", "{W}/wiki.txt",
            "--align", "{O}/align/align.txt", "--head", "identity", "--threads", "1",
            "--eval", "--eps-bias=-1e9", "--out-dir", "{O}/link"],
            expect={f"link/{n}": f"link/{n}" for n in files},
            metric="link_spans_per_s", items=totals["spans"]),
    ]
    n_entities = len(ent) + max(0, n_filler)
    props = dict(
        link_properties(docs, totals),
        surfaces=len(surfaces), surfaces_cached=len(seed_cache),
        questions=questions, answers=len(answers),
        resolved_share=len(subject_entity) / questions,
        entity_rows=n_entities, word_rows=len(topical) + len(plain) + len(extra),
        shared_words=len(topical) + len(plain),
        table_rows=len(rows), table_surfaces=len(table),
        referenced_entities=len(referenced | doc_entities),
        referenced_entity_share=len(referenced | doc_entities) / n_entities,
        table_entity_share=len({c for v in table.values() for c, _ in v}) / n_entities,
    )
    return dict(commands=commands, properties=props)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to create")
    ap.add_argument("--scale", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)
    manifest = make_world(Path(args.out), args.workload, args.seed, args.scale)
    print(json.dumps(manifest["properties"], sort_keys=True))
    return 0


def make_world(root: Path, workload: str, seed: int, scale: str = "full") -> dict:
    """Write one workload's world under ``root`` and return its manifest."""
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    size = SIZES[scale][workload]
    maker = {"lama": make_lama, "link": make_link, "ingest": make_ingest}[workload]
    manifest = maker(root, rng, size)
    manifest.update(workload=workload, seed=seed, scale=scale, sizes=size)
    write_text(root / "world.json", json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest


if __name__ == "__main__":
    raise SystemExit(main())
