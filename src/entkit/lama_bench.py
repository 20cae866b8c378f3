"""Cloze-probe benchmark: question rendering, ranking, and name filtering.

Questions are rendered from per-relation templates with an ``[X]`` subject
slot and a ``[MASK]`` answer slot. Accuracy is hits@k averaged first within
each relation and then across relations, so small relations weigh as much as
large ones.

Two deletion heuristics remove questions whose subject name alone gives the
answer away: a case-insensitive substring test (the answer appears inside the
subject surface), and a name probe that asks, for each whitespace part of the
subject, whether the answer ranks in the top-k completions of
``"<part> is a common name in the following <noun>: [MASK]."``. Only
relations whose template declares a probe noun are eligible for the second
heuristic. A ranking is the answer-vocabulary ids of a question's best k
answers, best first. Questions are ranked in batches: one scorer call per
``ROW_BLOCK`` (64) questions, put in the scorer's one input form by
``scorer.keyed``, and one probe per distinct (part, noun) pair.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._tsv import breaks_tsv, json_lines
from .embeddings import EmbeddingSpace, Vocabulary
from .errors import DataError
from .scorer import ROW_BLOCK, keyed
from .symbols import is_entity_symbol
from .text_input import (
    MASK_WORD,
    InputMode,
    MentionSpan,
    TokenSequence,
    build_input,
)

logger = logging.getLogger(__name__)

NAME_NOUNS = ("language", "city", "country", "none")

# Relations whose subject is a person name and whose answer class has a
# probe noun: native language and languages spoken -> language, citizenship
# -> country, birth and death places -> city.
DEFAULT_NAME_NOUN_BY_RELATION: dict[str, str] = {
    "P103": "language",
    "P1412": "language",
    "P27": "country",
    "P19": "city",
    "P20": "city",
    "place_of_birth": "city",
    "place_of_death": "city",
}

PROBE_TEMPLATE = "[X] is a common name in the following {noun}: [MASK]."


@dataclass(frozen=True)
class KbTriple:
    """One benchmark fact: subject surface, optional entity id, answer."""

    sub_surface: str
    obj_surface: str
    sub_entity: str | None = None

    def __post_init__(self):
        if not self.obj_surface:
            raise ValueError("triple needs a non-empty answer surface")
        if self.sub_entity is not None and not is_entity_symbol(self.sub_entity):
            raise ValueError(
                f"subject entity must be an ENTITY/ symbol: {self.sub_entity!r}"
            )


@dataclass(frozen=True)
class RelationTemplate:
    """Cloze template with exactly one ``[X]`` and one ``[MASK]``."""

    relation: str
    template: str
    name_noun: str = "none"

    def __post_init__(self):
        if self.template.count("[X]") != 1:
            raise DataError(
                f"template for {self.relation!r} must contain [X] exactly once"
            )
        if self.template.count("[MASK]") != 1:
            raise DataError(
                f"template for {self.relation!r} must contain [MASK] exactly once"
            )
        if self.name_noun not in NAME_NOUNS:
            raise DataError(
                f"template for {self.relation!r} has unknown name noun "
                f"{self.name_noun!r}"
            )


def render_question(
    triple: KbTriple,
    template: RelationTemplate,
    mode: InputMode,
    entity_space: EmbeddingSpace | None,
    vocab: Vocabulary,
) -> TokenSequence:
    """Substitute the subject into the template and build the input.

    The placeholders are forced onto whitespace boundaries first, so a
    template like ``"... is [MASK]."`` renders the mask and the final period
    as separate tokens. The subject becomes a mention spanning its
    whitespace words, injected per ``mode``.
    """
    padded = template.template.replace("[X]", " [X] ").replace("[MASK]", " [MASK] ")
    words = padded.split()
    xi = words.index("[X]")
    sub_words = triple.sub_surface.split()
    sentence_words = words[:xi] + sub_words + words[xi + 1 :]
    mentions = []
    if sub_words:
        mentions.append(MentionSpan(xi, xi + len(sub_words), triple.sub_entity))
    return build_input(" ".join(sentence_words), mentions, mode, entity_space, vocab)


def rank_answers(
    seqs: Iterable[TokenSequence],
    scorer,
    answer_vocab: Vocabulary,
    k: int,
) -> list[list[int]]:
    """The answer-vocabulary ids of the best ``k`` answers at the single mask
    position of each question, best first.

    Only answer-vocabulary symbols are scored, ``ROW_BLOCK`` questions per
    ``scorer.score_answers(tokens, inputs, symbols)`` call, each block keyed
    on its own by ``scorer.keyed``, so ranking memory grows with
    ``ROW_BLOCK`` times the answer vocabulary, not with the number of
    questions. The questions are taken a block at a time, so ``seqs`` may
    render them as they are asked for. Ties in probability break by
    ascending vocabulary id, so rankings are fully deterministic. The
    scorer's result is only read (a scorer may return a view of its own
    data), and each block's sort is freed before the next block is scored.
    """
    if len(answer_vocab) == 0:
        raise ValueError("empty answer vocabulary")
    out: list[list[int]] = []
    seqs = iter(seqs)
    while block := list(islice(seqs, ROW_BLOCK)):
        tokens, inputs = keyed(seq.tokens for seq in block)
        probs = scorer.score_answers(tokens, inputs, answer_vocab.symbols)
        out += np.argsort(-probs, axis=1, kind="stable")[:, :k].tolist()
    return out


@dataclass
class HitsReport:
    per_relation: dict[str, float]
    counts: dict[str, int]
    overall: float


def hits_at_k(
    by_relation: Mapping[str, Sequence[tuple[Sequence, object]]], k: int
) -> HitsReport:
    """Macro hits@k: mean within each relation, then the unweighted mean of
    the per-relation values.

    ``by_relation`` maps each relation to its (ranking, gold answer) pairs,
    a ranking listing answers best first; a question is a hit when its gold
    answer is among the first k.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not by_relation:
        raise ValueError("no relations to score")
    per_relation: dict[str, float] = {}
    counts: dict[str, int] = {}
    for rel, pairs in by_relation.items():
        if not pairs:
            raise ValueError(f"relation {rel!r} has no questions")
        hits = sum(gold in ranking[:k] for ranking, gold in pairs)
        per_relation[rel] = hits / len(pairs)
        counts[rel] = len(pairs)
    overall = sum(per_relation.values()) / len(per_relation)
    return HitsReport(per_relation, counts, overall)


def string_match_filter(triple: KbTriple) -> bool:
    """True when the question must be deleted: the lowercased answer is a
    substring of the lowercased subject surface."""
    return triple.obj_surface.lower() in triple.sub_surface.lower()


Dataset = dict[str, list[KbTriple]]


@dataclass
class UhnResult:
    """Stage-1 and stage-2 datasets plus per-relation counts at stages 0/1/2."""

    stage1: Dataset
    stage2: Dataset
    stats: dict[str, tuple[int, int, int]]


def build_lama_uhn(
    dataset: Dataset,
    templates: Mapping[str, RelationTemplate],
    scorer,
    answer_vocab: Vocabulary,
    top_k: int = 3,
    case_insensitive: bool = False,
) -> UhnResult:
    """Apply the substring filter, then the name probe where eligible.

    Stage 1 applies the substring deletion to every relation. Stage 2
    additionally applies the name probe to relations whose template declares
    a noun. Each distinct (part, noun) pair among the stage-1 subjects of the
    eligible relations is probed once, and a question is deleted when any
    whitespace part of its subject has the answer in its probe's top
    ``top_k``. Probes render in plain wordpiece mode, so entity knowledge
    never influences a deletion; the answer match is exact unless
    ``case_insensitive`` is set; ``top_k = 0`` deletes nothing, and a
    subject with no parts is kept. Counts are monotone: stage 0 >= stage
    1 >= stage 2 for every relation. Every relation needs a template, as
    ``require_templates`` checks.
    """
    require_templates(dataset, templates)
    stage1 = {
        rel: [t for t in triples if not string_match_filter(t)]
        for rel, triples in dataset.items()
    }
    nouns = {
        rel: templates[rel].name_noun
        for rel in dataset if top_k > 0 and templates[rel].name_noun != "none"
    }
    # Every distinct (noun, part) probe is ranked once, all in one call. A
    # probe renders in plain wordpieces, its answer slot the mask.
    probes = list(dict.fromkeys(
        (noun, part)
        for rel, noun in nouns.items() for t in stage1[rel] for part in t.sub_surface.split()
    ))
    frames = {n: PROBE_TEMPLATE.format(noun=n).replace("[MASK]", " [MASK] ") for n in NAME_NOUNS}
    seqs = (
        build_input(frames[noun].replace("[X]", part), [], InputMode.BERT, None, scorer.wp_vocab)
        for noun, part in probes
    )
    fold = str.lower if case_insensitive else str
    tops = {
        probe: {fold(answer_vocab.symbols[i]) for i in ranking}
        for probe, ranking in zip(probes, rank_answers(seqs, scorer, answer_vocab, top_k))
    }
    stage2 = {
        rel: [
            t for t in s1
            if not any(fold(t.obj_surface) in tops[nouns[rel], part]
                       for part in t.sub_surface.split())
        ]
        if rel in nouns else list(s1)
        for rel, s1 in stage1.items()
    }
    stats = {
        rel: (len(triples), len(stage1[rel]), len(stage2[rel]))
        for rel, triples in dataset.items()
    }
    return UhnResult(stage1, stage2, stats)


def require_templates(dataset: Dataset, templates: Mapping[str, RelationTemplate]) -> None:
    """A DataError naming the first relation of ``dataset``, in sorted
    order, that has no template."""
    for rel in sorted(dataset):
        if rel not in templates:
            raise DataError(f"no template for relation {rel!r}")


def load_templates(path) -> dict[str, RelationTemplate]:
    """Load a JSON list of {"relation", "template", "name_noun"?} records."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError:
            raise DataError(f"{path}: invalid JSON") from None
    if not isinstance(raw, list):
        raise DataError(f"{path}: expected a JSON list of templates")
    out: dict[str, RelationTemplate] = {}
    for n, item in enumerate(raw, start=1):
        rel = item.get("relation") if isinstance(item, dict) else None
        if not isinstance(rel, str):
            raise DataError(f"{path}: malformed template record {n} (no relation string)")
        noun = item.get("name_noun", DEFAULT_NAME_NOUN_BY_RELATION.get(rel, "none"))
        if not (isinstance(item.get("template"), str) and isinstance(noun, str)):
            raise DataError(f"{path}: malformed template record {n} "
                            "(template and name_noun must be strings)")
        template = RelationTemplate(rel, item["template"], noun)
        if template.relation in out:
            raise DataError(f"{path}: duplicate template for {template.relation!r}")
        out[template.relation] = template
    return out


def load_lama_dir(path, answer_vocab: Vocabulary) -> tuple[Dataset, dict[str, int]]:
    """Load one JSON-lines file per relation from a directory.

    The relation name is the file stem. Triples whose answer is not a single
    symbol of the answer vocabulary are rejected and counted per relation,
    never silently dropped. ``sub_uri`` fields are tolerated and ignored;
    subject resolution is a separate step.
    """
    root = Path(path)
    files = sorted(root.glob("*.jsonl"))
    if not files:
        raise DataError(f"{path}: no .jsonl relation files found")
    dataset: Dataset = {}
    rejected: dict[str, int] = {}
    for file in files:
        rel = file.stem
        if breaks_tsv(rel):  # the reports are tab-separated
            raise DataError(f"{path}: relation file name {file.name!r} holds a tab "
                            "or line break")
        triples: list[KbTriple] = []
        nrej = 0
        for lineno, obj in json_lines(file):
            try:
                sub, answer = obj["sub_label"], obj["obj_label"]
            except (KeyError, TypeError):
                raise DataError(
                    f"{file}: line {lineno}: missing sub_label/obj_label"
                ) from None
            if not (isinstance(sub, str) and isinstance(answer, str)):
                raise DataError(
                    f"{file}: line {lineno}: sub_label and obj_label must be strings"
                )
            if MASK_WORD in sub.split():
                raise DataError(f"{file}: line {lineno}: sub_label holds {MASK_WORD}")
            if len(answer.split()) != 1 or answer not in answer_vocab:
                nrej += 1
                continue
            triples.append(KbTriple(sub, answer))
        dataset[rel] = triples
        rejected[rel] = nrej
        if nrej:
            logger.info("relation %s: rejected %d out-of-vocabulary answers", rel, nrej)
    return dataset, rejected


def resolve_subjects(dataset: Dataset, mapping: Mapping[str, str]) -> Dataset:
    """Attach entity ids to subjects via a surface-to-symbol map.

    Subjects absent from the map stay unresolved and later fall back to
    plain wordpieces.
    """
    return {
        rel: [replace(t, sub_entity=mapping.get(t.sub_surface)) for t in triples]
        for rel, triples in dataset.items()
    }
