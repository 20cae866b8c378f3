"""Entity linking over pre-tokenized documents with a prior-biased decoder.

Candidate spans come from a surface-form table; every span whose surface is
a table key is generated, deliberately over-generating so the decoder can
reject. Each span is scored against its candidates plus a trainable
null-entity option, where a candidate's bias is the log of its prior, so the
prior acts as an additive logit bias. Decoding runs in iterations: the most
confident spans are fixed first and rendered as entity tokens for later
iterations, with a schedule that decodes a ceil(j N / J) cumulative share by
iteration j.
"""

from __future__ import annotations

import json
import logging
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from math import log
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from ._tsv import tsv_rows
from .embeddings import EmbeddingSpace, Vocabulary, is_entity_symbol
from .errors import DataError
from .scorer import AffineHead, candidate_gradients, candidate_probs
from .text_input import Token, TokenSequence, wordpiece_tokens
from .wikidata_client import url_to_entity_symbol

logger = logging.getLogger(__name__)

REDIRECT_DEPTH_LIMIT = 16


class Candidate(NamedTuple):
    entity: str
    prior: float


class SpanState(Enum):
    UNDECIDED = "undecided"
    DECODED = "decoded"
    REJECTED = "rejected"


@dataclass
class CandidateSpan:
    """Half-open token span with its candidate entities and decode state."""

    start: int
    end: int
    candidates: tuple[Candidate, ...]
    state: SpanState = SpanState.UNDECIDED
    entity: str | None = None

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"bad span [{self.start}, {self.end})")
        if not self.candidates:
            raise ValueError("candidate span needs a non-empty candidate list")

    def overlaps(self, other: "CandidateSpan") -> bool:
        return self.start < other.end and other.start < self.end

    def decode(self, entity: str) -> None:
        if entity not in {c.entity for c in self.candidates}:
            raise ValueError(f"{entity!r} is not a candidate of this span")
        self.state = SpanState.DECODED
        self.entity = entity


@dataclass
class NullEntityParams:
    """Trainable parameters of the no-entity option, initialized to zero."""

    e: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        self.e = np.asarray(self.e, dtype=np.float64)
        if self.e.ndim != 1:
            raise ValueError("null-entity vector must be one-dimensional")

    @classmethod
    def zeros(cls, dim: int, b: float = 0.0) -> "NullEntityParams":
        return cls(np.zeros(dim), b)


@dataclass(frozen=True)
class GoldAnnotation:
    start: int
    end: int
    entity: str

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"bad gold span [{self.start}, {self.end})")


@dataclass(frozen=True)
class Document:
    doc_id: str
    tokens: tuple[str, ...]
    golds: tuple[GoldAnnotation, ...] = ()


@dataclass
class CandidateTable:
    """Surface form to candidate list, keys at most ``max_span`` tokens."""

    spans: dict[str, tuple[Candidate, ...]]
    max_span: int
    rejected_long_keys: int = 0

    def entities(self) -> set[str]:
        return {c.entity for cands in self.spans.values() for c in cands}


def load_candidate_table(path, max_span: int = 7) -> CandidateTable:
    """Load TSV rows ``surface<TAB>entity<TAB>prior``.

    Priors must lie in (0, 1]; they need not sum to one per surface.
    Duplicate (surface, entity) rows are an error. Keys longer than
    ``max_span`` whitespace tokens are rejected and counted.
    """
    spans: dict[str, list[Candidate]] = {}
    rejected = 0
    for lineno, (surface, entity, prior_text) in tsv_rows(path, 3):
        if not is_entity_symbol(entity):
            raise DataError(f"{path}: line {lineno}: entity must be an ENTITY/ symbol")
        try:
            prior = float(prior_text)
        except ValueError:
            raise DataError(f"{path}: line {lineno}: unparseable prior") from None
        if not (0.0 < prior <= 1.0):
            raise DataError(
                f"{path}: line {lineno}: prior must lie in (0, 1], got {prior}"
            )
        if len(surface.split()) > max_span:
            rejected += 1
            continue
        cands = spans.setdefault(surface, [])
        if entity in {c.entity for c in cands}:
            raise DataError(
                f"{path}: line {lineno}: duplicate candidate {entity!r} "
                f"for surface {surface!r}"
            )
        cands.append(Candidate(entity, prior))
    if rejected:
        logger.info("candidate table: rejected %d over-length keys", rejected)
    return CandidateTable(
        {s: tuple(c) for s, c in spans.items()}, max_span, rejected
    )


def generate_candidates(
    tokens: Sequence[str],
    table: Mapping[str, Sequence[Candidate]],
    max_span: int = 7,
) -> list[CandidateSpan]:
    """Every span of up to ``max_span`` tokens whose joined surface is a
    table key, in (start, end) lexicographic order. Overlapping output is
    intended; the decoder resolves conflicts."""
    spans: list[CandidateSpan] = []
    for start in range(len(tokens)):
        for end in range(start + 1, min(start + max_span, len(tokens)) + 1):
            key = " ".join(tokens[start:end])
            cands = table.get(key)
            if cands:
                spans.append(CandidateSpan(start, end, tuple(cands)))
    return spans


def build_el_input(
    tokens: Sequence[str],
    span: CandidateSpan,
    vocab: Vocabulary,
    decoded: Mapping[tuple[int, int], str] | None = None,
    use_emask: bool = True,
) -> TokenSequence:
    """Linking input: left context, entity mask, ``/``, surface pieces,
    ``*``, right context, framed by CLS/SEP.

    The entity mask averages the span's candidates; with ``use_emask`` off a
    standard mask is used instead (ablation). Spans already decoded render
    as their entity token in place of their surface. Context words are
    tokenized literally. ``span_mask_states`` takes the mask states of
    these inputs for many spans at once.
    """
    left, mask, right = _el_layout(
        len(tokens), span, _by_start(decoded or {}), use_emask
    )
    seq: list[Token] = []
    for part in left + [mask] + right:
        if isinstance(part, range):
            seq.extend(wordpiece_tokens(tokens[part.start : part.stop], vocab))
        else:
            seq.append(part)
    return TokenSequence(tuple(seq))


def _by_start(decoded: Mapping[tuple[int, int], str]) -> list[tuple[int, int, str]]:
    """Decoded spans as sorted (start, end, entity); of two that share a
    start, the later one in ``decoded`` wins."""
    ends = {s: (e, ent) for (s, e), ent in decoded.items()}
    return sorted((s, e, ent) for s, (e, ent) in ends.items())


# One part of a linking input: a Token, or a range of document words whose
# wordpieces are rendered literally.
_Part = Token | range


def _el_layout(
    n_words: int, span: CandidateSpan, decoded: list[tuple[int, int, str]],
    use_emask: bool,
) -> tuple[list[_Part], Token, list[_Part]]:
    """The linking input of ``span`` as (parts before the mask, the mask,
    parts after it); ``build_el_input`` describes the order."""
    if span.end > n_words:
        raise ValueError(f"span [{span.start}, {span.end}) exceeds document length")
    mask = (
        Token.emask([c.entity for c in span.candidates])
        if use_emask
        else Token.mask()
    )
    left = [Token.control("CLS")] + _context(0, span.start, decoded)
    right = [Token.control("slash"), range(span.start, span.end), Token.control("star")]
    right += _context(span.end, n_words, decoded)
    right.append(Token.control("SEP"))
    return left, mask, right


def _context(lo: int, hi: int, decoded: list[tuple[int, int, str]]) -> list[_Part]:
    """Words ``lo..hi-1``, where a decoded span that starts in the range and
    ends within it renders as its entity; every other word is literal."""
    out: list[_Part] = []
    i = lo
    for s, e, ent in decoded[bisect_left(decoded, (lo,)) :]:
        if s >= hi:
            break
        if s < i or e > hi:
            continue
        if i < s:
            out.append(range(i, s))
        out.append(Token.entity(ent))
        i = e
    if i < hi:
        out.append(range(i, hi))
    return out


def span_mask_states(
    tokens: Sequence[str],
    spans: Sequence[CandidateSpan],
    scorer,
    decoded: Mapping[tuple[int, int], str] | None = None,
    use_emask: bool = True,
) -> np.ndarray:
    """Mask states of many spans of one document, as an ``(S, d)`` array.

    Row s is the state ``scorer.mask_state(build_el_input(tokens, spans[s],
    scorer.wp_vocab, decoded, use_emask))`` would give, bit for bit, for a
    reference scorer. Each distinct word is tokenized once with
    ``scorer.wp_vocab``. Every span's input becomes an index array into one
    list of distinct tokens, and one ``scorer.mask_states`` call embeds each
    of those tokens once and returns all the states.
    """
    if not spans:
        raise ValueError("no spans to score")
    by_start = _by_start(decoded or {})
    layouts = [_el_layout(len(tokens), s, by_start, use_emask) for s in spans]

    keys: dict[Token, int] = {}
    by_word: dict[str, list[int]] = {}
    for w in tokens:
        if w not in by_word:
            pieces = wordpiece_tokens([w], scorer.wp_vocab)
            by_word[w] = [keys.setdefault(t, len(keys)) for t in pieces]
    literal = np.array([k for w in tokens for k in by_word[w]], dtype=np.intp)
    offset = [0, *accumulate(len(by_word[w]) for w in tokens)]

    def indices(parts: list[_Part]) -> list:
        return [
            literal[offset[p.start] : offset[p.stop]] if isinstance(p, range)
            else [keys.setdefault(p, len(keys))]
            for p in parts
        ]

    inputs = []
    for left, mask, right in layouts:
        before = np.concatenate(indices(left))
        idx = np.concatenate([before, [keys.setdefault(mask, len(keys))], *indices(right)])
        inputs.append((idx, len(before)))

    return scorer.mask_states(list(keys), inputs)


def candidate_groups(
    candidate_lists: Sequence[Sequence[Candidate]], ent_space: EmbeddingSpace | None
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The candidate lists grouped by length, as the ``(rows, e, b)`` groups
    of ``candidate_probs``: ``rows`` index the lists, ``e`` holds the entity
    rows as float64 and ``b`` the log priors. Scored with the null entity
    ``(e_eps, b_eps)`` as the shared candidate, a list's probabilities are
    its posterior, null entity last; scaling all priors by a common factor
    leaves the candidate ratios unchanged."""
    if ent_space is None:
        raise ValueError("entity linking needs a scorer with an entity space")
    index = ent_space.vocab.index
    by_count: dict[int, list[int]] = {}
    for i, candidates in enumerate(candidate_lists):
        if not candidates:
            raise ValueError("no candidates to score")
        for c in candidates:
            if not c.prior > 0.0:
                raise ValueError(f"prior for {c.entity!r} must be positive")
            if c.entity not in index:
                raise DataError(f"entity {c.entity!r} missing from entity space")
        by_count.setdefault(len(candidates), []).append(i)
    groups = []
    for members in by_count.values():
        lists = [candidate_lists[i] for i in members]
        rows = ent_space.matrix[[[index[c.entity] for c in cs] for cs in lists]]
        priors = np.array([[log(c.prior) for c in cs] for cs in lists])
        groups.append((np.array(members), rows.astype(np.float64), priors))
    return groups


@dataclass(frozen=True)
class TrainingExample:
    """A span of a document with its gold entity; the linking input is
    built when the linker is trained, one batch per document."""

    tokens: tuple[str, ...]
    span: CandidateSpan
    gold: str | None  # None means the null entity

    @property
    def candidates(self) -> tuple[Candidate, ...]:
        return self.span.candidates


def build_training_examples(
    doc: Document, spans: Sequence[CandidateSpan]
) -> tuple[list[TrainingExample], int]:
    """Pair each of the document's candidate spans, as ``generate_candidates``
    gives them for its tokens, with its gold entity or the null entity.

    A span whose gold entity is not among its candidates cannot be trained
    and is dropped with a count; this pruning applies to training data only,
    never at decode time.
    """
    gold_by_span = {(g.start, g.end): g.entity for g in doc.golds}
    examples: list[TrainingExample] = []
    dropped = 0
    for span in spans:
        gold = gold_by_span.get((span.start, span.end))
        if gold is not None and gold not in {c.entity for c in span.candidates}:
            dropped += 1
            continue
        examples.append(TrainingExample(doc.tokens, span, gold))
    return examples, dropped


def train_linker(
    examples: Sequence[TrainingExample],
    head: AffineHead,
    eps: NullEntityParams,
    scorer,
    epochs: int = 50,
    step: float = 0.1,
    use_emask: bool = True,
) -> list[float]:
    """Full-batch gradient descent on the head and null-entity parameters.

    Entity vectors and priors are frozen; only A, c, e_eps, and b_eps move.
    Candidate rows come from ``scorer.ent``, the space the scorer embeds
    entity masks from. Mask states are computed once up front, one
    ``span_mask_states`` call per document, because the encoder takes no
    gradient. Returns the loss trajectory: mean loss at each epoch's
    starting parameters, plus the final loss (length ``epochs + 1``).
    """
    if not examples:
        raise ValueError("no training examples")
    by_doc: dict[tuple[str, ...], list[int]] = {}
    for i, ex in enumerate(examples):
        by_doc.setdefault(ex.tokens, []).append(i)
    groups = candidate_groups([ex.candidates for ex in examples], scorer.ent)
    states = np.empty((len(examples), scorer.ent.dim))
    for tokens, members in by_doc.items():
        spans = [examples[i].span for i in members]
        states[members] = span_mask_states(tokens, spans, scorer, None, use_emask)
    # A null-entity gold indexes past the candidates, where it is scored.
    gold = np.array([
        len(ex.candidates) if ex.gold is None
        else [c.entity for c in ex.candidates].index(ex.gold)
        for ex in examples
    ])

    n = len(examples)
    losses: list[float] = []
    for epoch in range(epochs + 1):
        u = head.apply(states)
        # Only the null entity, the shared candidate, is trainable.
        loss, du, g_null, _ = candidate_gradients(u, groups, gold, (eps.e, eps.b))
        # cumsum adds the losses one by one in example order.
        losses.append(float(np.cumsum(loss)[-1]) / n)
        if epoch == epochs:
            break
        head.a = head.a - step * ((du.T @ states) / n)
        head.c = head.c - step * (du.sum(axis=0) / n)
        eps.e = eps.e - step * ((g_null @ u) / n)
        eps.b = eps.b - step * (float(g_null.sum()) / n)
    return losses


@dataclass(frozen=True)
class RefinementStep:
    iteration: int
    selectable: int
    quota: int
    decoded: tuple[tuple[int, int, str], ...]


def iterative_refine(
    tokens: Sequence[str],
    spans: Sequence[CandidateSpan],
    scorer,
    head: AffineHead,
    eps: NullEntityParams,
    iterations: int = 3,
    use_emask: bool = True,
) -> tuple[list[CandidateSpan], list[RefinementStep]]:
    """Decode spans over ``iterations`` rounds of rescoring.

    Each round rescores the undecided spans, and no others, against the
    current partial decoding with one ``span_mask_states`` and one
    ``candidate_probs`` call. With m spans already decoded and n undecided
    spans whose argmax is a real entity, the round fixes the k = ceil(j (m
    + n) / J) - m most confident of those n (by null-entity improbability,
    ties toward the earlier span), skipping any span that overlaps an
    already fixed one; skips do not count toward k. Rounds end early once n
    reaches zero. Spans still undecided at the end are rejected.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    spans = list(spans)
    log_steps: list[RefinementStep] = []

    for j in range(1, iterations + 1):
        taken = [s for s in spans if s.state is SpanState.DECODED]
        decoded_map = {(s.start, s.end): s.entity for s in taken}
        undecided = [s for s in spans if s.state is SpanState.UNDECIDED]
        if not undecided:
            break

        groups = candidate_groups([s.candidates for s in undecided], scorer.ent)
        states = span_mask_states(tokens, undecided, scorer, decoded_map, use_emask)
        # (span, p(null), its best entity, index) of each selectable span.
        selectable: list[tuple[CandidateSpan, float, str, int]] = []
        probs = candidate_probs(head.apply(states), groups, (eps.e, eps.b))
        for (rows, _, _), p in zip(groups, probs):
            for i, best, p_null in zip(rows, p.argmax(axis=1), p[:, -1]):
                span = undecided[i]
                if best < len(span.candidates):
                    selectable.append((span, float(p_null), span.candidates[best].entity, i))
        m = len(decoded_map)
        n = len(selectable)
        if n == 0:
            log_steps.append(RefinementStep(j, 0, 0, ()))
            break
        # k = ceil(j (m + n) / J) - m, in exact integer arithmetic
        quota = max(0, -((-j * (m + n)) // iterations) - m)
        selectable.sort(key=lambda t: (t[1], t[0].start, t[0].end, t[3]))
        accepted: list[CandidateSpan] = []
        for span, _p_eps, entity, _ in selectable:
            if len(accepted) == quota:
                break
            if not any(span.overlaps(t) for t in taken):
                span.decode(entity)
                accepted.append(span)
                taken.append(span)
        fixed_now = tuple((s.start, s.end, s.entity) for s in accepted)
        log_steps.append(RefinementStep(j, n, quota, fixed_now))

    for span in spans:
        if span.state is SpanState.UNDECIDED:
            span.state = SpanState.REJECTED
    return spans, log_steps


class Prf(NamedTuple):
    precision: float
    recall: float
    f1: float


@dataclass
class MatchScores:
    micro: Prf
    macro: Prf


def canonical_entity(entity: str, redirects: Mapping[str, str]) -> str:
    """Follow the redirect map to its fixpoint, guarding against cycles."""
    seen = entity
    for _ in range(REDIRECT_DEPTH_LIMIT):
        nxt = redirects.get(seen)
        if nxt is None:
            return seen
        seen = nxt
    raise DataError(f"redirect chain from {entity!r} exceeds depth {REDIRECT_DEPTH_LIMIT}")


def strong_match_f1(
    predictions: Sequence[Iterable[tuple[int, int, str]]],
    golds: Sequence[Iterable[tuple[int, int, str]]],
    redirects: Mapping[str, str] | None = None,
) -> MatchScores:
    """Strong-match scoring: a prediction counts iff start, end, and the
    redirect-canonicalized entity all agree with a gold annotation.

    Micro scores pool matches over all documents; macro scores average the
    per-document values. Empty prediction and gold sets score 1.0 against
    each other.
    """
    if len(predictions) != len(golds):
        raise ValueError("predictions and golds must cover the same documents")
    redirects = redirects or {}

    def canon(items) -> set[tuple[int, int, str]]:
        return {(s, e, canonical_entity(ent, redirects)) for s, e, ent in items}

    tp = fp = fn = 0
    per_doc: list[Prf] = []
    for pred, gold in zip(predictions, golds):
        p, g = canon(pred), canon(gold)
        doc_tp = len(p & g)
        tp += doc_tp
        fp += len(p - g)
        fn += len(g - p)
        per_doc.append(_prf(doc_tp, len(p), len(g)))
    micro = _prf(tp, tp + fp, tp + fn)
    if per_doc:
        macro = Prf(
            sum(d.precision for d in per_doc) / len(per_doc),
            sum(d.recall for d in per_doc) / len(per_doc),
            sum(d.f1 for d in per_doc) / len(per_doc),
        )
    else:
        macro = Prf(0.0, 0.0, 0.0)
    return MatchScores(micro, macro)


def _prf(tp: int, n_pred: int, n_gold: int) -> Prf:
    precision = tp / n_pred if n_pred else (1.0 if n_gold == 0 else 0.0)
    recall = tp / n_gold if n_gold else (1.0 if n_pred == 0 else 0.0)
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return Prf(precision, recall, f1)


def normalize_entity(value: str) -> str:
    """Accept an en.wikipedia.org URL or an ENTITY/ symbol; return the symbol."""
    if is_entity_symbol(value):
        return value
    if value.startswith("http://") or value.startswith("https://"):
        return url_to_entity_symbol(value)
    raise DataError(f"not an entity URL or ENTITY/ symbol: {value!r}")


def load_documents(path) -> list[Document]:
    """Load JSON-lines documents: {"doc_id", "tokens", "golds"?}.

    Gold entities normalize to ENTITY/ symbols. Overlapping gold spans are
    rejected; the strong-match scorer assumes disjoint references.
    """
    docs: list[Document] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                raise DataError(f"{where}: invalid JSON") from None
            if not (isinstance(obj, dict) and "doc_id" in obj and "tokens" in obj):
                raise DataError(f"{where}: missing doc_id/tokens")
            doc_id, tokens, raw_golds = obj["doc_id"], obj["tokens"], obj.get("golds", [])
            if not isinstance(doc_id, str):
                raise DataError(f"{where}: doc_id must be a string")
            if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
                raise DataError(f"{where}: tokens must be a list of strings")
            if not isinstance(raw_golds, list):
                raise DataError(f"{where}: golds must be a list")
            golds = [_gold_annotation(g, where) for g in raw_golds]
            golds.sort(key=lambda g: (g.start, g.end))
            for a, b in zip(golds, golds[1:]):
                if b.start < a.end:
                    raise DataError(f"{where}: overlapping gold spans in {doc_id!r}")
            for g in golds:
                if g.end > len(tokens):
                    raise DataError(f"{where}: gold span exceeds document length")
            docs.append(Document(doc_id, tuple(tokens), tuple(golds)))
    return docs


def _gold_annotation(g, where: str) -> GoldAnnotation:
    """One gold record: integer (not bool) offsets and an entity URL or symbol."""
    if not (isinstance(g, dict) and {"start", "end", "entity"} <= g.keys()):
        raise DataError(f"{where}: bad gold annotation (needs start, end and entity)")
    start, end, entity = g["start"], g["end"], g["entity"]
    if not (type(start) is type(end) is int and isinstance(entity, str)):
        raise DataError(f"{where}: bad gold annotation (start and end must be "
                        "integers, entity a string)")
    try:
        return GoldAnnotation(start, end, normalize_entity(entity))
    except ValueError as exc:
        raise DataError(f"{where}: bad gold annotation ({exc})") from None


def load_redirects(path) -> dict[str, str]:
    """Load TSV redirect rows ``from<TAB>to``; both sides normalize to symbols."""
    out: dict[str, str] = {}
    for lineno, fields in tsv_rows(path, 2):
        src, dst = (normalize_entity(f) for f in fields)
        if src in out:
            raise DataError(f"{path}: line {lineno}: duplicate redirect for {src!r}")
        out[src] = dst
    return out
