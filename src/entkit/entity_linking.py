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
from dataclasses import dataclass
from enum import Enum
from math import log
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .embeddings import EmbeddingSpace, Vocabulary, is_entity_symbol
from .errors import DataError
from .scorer import AffineHead, HeadGradients, head_gradients, score_candidates
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
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise DataError(f"{path}: line {lineno}: expected 3 tab-separated fields")
            surface, entity, prior_text = fields
            if not is_entity_symbol(entity):
                raise DataError(
                    f"{path}: line {lineno}: entity must be an ENTITY/ symbol"
                )
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
    tokenized literally.
    """
    decoded = decoded or {}
    starts = {s: (e, ent) for (s, e), ent in decoded.items()}

    def context(lo: int, hi: int) -> list[Token]:
        out: list[Token] = []
        i = lo
        while i < hi:
            hit = starts.get(i)
            if hit is not None and hit[0] <= hi:
                out.append(Token.entity(hit[1]))
                i = hit[0]
            else:
                out.extend(wordpiece_tokens([tokens[i]], vocab))
                i += 1
        return out

    if span.end > len(tokens):
        raise ValueError(f"span [{span.start}, {span.end}) exceeds document length")
    mask = (
        Token.emask([c.entity for c in span.candidates])
        if use_emask
        else Token.mask()
    )
    middle: list[Token] = [mask, Token.control("slash")]
    middle.extend(wordpiece_tokens(tokens[span.start : span.end], vocab))
    middle.append(Token.control("star"))
    seq = (
        [Token.control("CLS")]
        + context(0, span.start)
        + middle
        + context(span.end, len(tokens))
        + [Token.control("SEP")]
    )
    return TokenSequence(tuple(seq))


def entity_distribution(
    h: np.ndarray,
    head: AffineHead,
    candidates: Sequence[Candidate],
    ent_space: EmbeddingSpace,
    eps: NullEntityParams,
) -> np.ndarray:
    """Posterior over candidates plus the null entity (last index).

    Each candidate's logit is ``e_a . head(h) + log prior``; the null entity
    contributes ``e_eps . head(h) + b_eps``. Scaling all priors by a common
    factor shifts candidate logits uniformly and leaves candidate probability
    ratios unchanged.
    """
    if not candidates:
        raise ValueError("no candidates to score")
    cands = _candidate_rows(candidates, ent_space) + [(eps.e, eps.b)]
    return score_candidates(h, head, cands)


def _candidate_rows(
    candidates: Sequence[Candidate], ent_space: EmbeddingSpace
) -> list[tuple[np.ndarray, float]]:
    """(entity row as float64, log prior) for each candidate, in order."""
    rows: list[tuple[np.ndarray, float]] = []
    for c in candidates:
        if not c.prior > 0.0:
            raise ValueError(f"prior for {c.entity!r} must be positive")
        row = ent_space.row(c.entity)
        if row is None:
            raise DataError(f"entity {c.entity!r} missing from entity space")
        rows.append((row.astype(np.float64), log(c.prior)))
    return rows


@dataclass(frozen=True)
class TrainingExample:
    seq: TokenSequence
    candidates: tuple[Candidate, ...]
    gold: str | None  # None means the null entity


def build_training_examples(
    doc: Document,
    table: Mapping[str, Sequence[Candidate]],
    vocab: Vocabulary,
    max_span: int = 7,
    use_emask: bool = True,
) -> tuple[list[TrainingExample], int]:
    """Pair every generated span with its gold entity or the null entity.

    A span whose gold entity is not among its candidates cannot be trained
    and is dropped with a count; this pruning applies to training data only,
    never at decode time.
    """
    gold_by_span = {(g.start, g.end): g.entity for g in doc.golds}
    examples: list[TrainingExample] = []
    dropped = 0
    for span in generate_candidates(doc.tokens, table, max_span):
        gold = gold_by_span.get((span.start, span.end))
        if gold is not None and gold not in {c.entity for c in span.candidates}:
            dropped += 1
            continue
        seq = build_el_input(doc.tokens, span, vocab, {}, use_emask)
        examples.append(TrainingExample(seq, span.candidates, gold))
    return examples, dropped


def train_linker(
    examples: Sequence[TrainingExample],
    head: AffineHead,
    eps: NullEntityParams,
    scorer,
    ent_space: EmbeddingSpace,
    epochs: int = 50,
    step: float = 0.1,
) -> list[float]:
    """Full-batch gradient descent on the head and null-entity parameters.

    Entity vectors and priors are frozen; only A, c, e_eps, and b_eps move.
    Mask states are computed once up front because the encoder takes no
    gradient. Returns the loss trajectory: mean loss at each epoch's starting
    parameters, plus the final loss (length ``epochs + 1``).
    """
    if not examples:
        raise ValueError("no training examples")
    states = [scorer.mask_state(ex.seq) for ex in examples]
    fixed = [_candidate_rows(ex.candidates, ent_space) for ex in examples]
    # A null-entity gold indexes past the candidates, where it is appended.
    gold_idx = [
        len(ex.candidates) if ex.gold is None
        else [c.entity for c in ex.candidates].index(ex.gold)
        for ex in examples
    ]

    losses: list[float] = []
    for _ in range(epochs):
        loss, ga, gc, ge, gb = _batch_gradients(states, fixed, gold_idx, head, eps)
        losses.append(loss)
        head.a = head.a - step * ga
        head.c = head.c - step * gc
        eps.e = eps.e - step * ge
        eps.b = eps.b - step * gb
    loss, *_ = _batch_gradients(states, fixed, gold_idx, head, eps)
    losses.append(loss)
    return losses


def _batch_gradients(states, fixed, gold_idx, head: AffineHead, eps: NullEntityParams):
    n = len(states)
    total_loss = 0.0
    ga = np.zeros_like(head.a)
    gc = np.zeros_like(head.c)
    ge = np.zeros_like(eps.e)
    gb = 0.0
    for h, cands, gold in zip(states, fixed, gold_idx):
        grads: HeadGradients = head_gradients(h, head, cands + [(eps.e, eps.b)], gold)
        total_loss += grads.loss
        ga += grads.a
        gc += grads.c
        de, db = grads.cands[-1]  # only the null entity is trainable
        ge += de
        gb += db
    return total_loss / n, ga / n, gc / n, ge / n, gb / n


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
    threads: int = 1,
) -> tuple[list[CandidateSpan], list[RefinementStep]]:
    """Decode spans over ``iterations`` rounds of rescoring.

    Each round rescores every undecided span against the current partial
    decoding. With m spans already decoded and n undecided spans whose
    argmax is a real entity, the round fixes the k = ceil(j (m + n) / J) - m
    most confident of those n (by null-entity improbability, ties toward the
    earlier span), skipping any span that overlaps an already fixed one;
    skips do not count toward k. Rounds end early once n reaches zero.
    Spans still undecided at the end are rejected.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    spans = list(spans)
    log_steps: list[RefinementStep] = []
    ent_space = scorer.ent
    if ent_space is None:
        raise ValueError("entity linking needs a scorer with an entity space")

    for j in range(1, iterations + 1):
        decoded_map = {
            (s.start, s.end): s.entity for s in spans if s.state is SpanState.DECODED
        }
        undecided = [s for s in spans if s.state is SpanState.UNDECIDED]
        if not undecided:
            break

        def score(span: CandidateSpan):
            seq = build_el_input(tokens, span, scorer.wp_vocab, decoded_map, use_emask)
            h = scorer.mask_state(seq)
            return entity_distribution(h, head, span.candidates, ent_space, eps)

        dists = _map_ordered(score, undecided, threads)
        selectable: list[tuple[CandidateSpan, float, str]] = []
        for span, dist in zip(undecided, dists):
            best = int(np.argmax(dist))
            if best < len(span.candidates):
                selectable.append(
                    (span, float(dist[-1]), span.candidates[best].entity)
                )
        m = len(decoded_map)
        n = len(selectable)
        if n == 0:
            log_steps.append(RefinementStep(j, 0, 0, ()))
            break
        # k = ceil(j (m + n) / J) - m, in exact integer arithmetic
        quota = max(0, -((-j * (m + n)) // iterations) - m)
        selectable.sort(key=lambda t: (t[1], t[0].start, t[0].end))
        fixed_now: list[tuple[int, int, str]] = []
        accepted: list[CandidateSpan] = []
        already = [s for s in spans if s.state is SpanState.DECODED]
        for span, _p_eps, entity in selectable:
            if len(accepted) == quota:
                break
            if any(span.overlaps(d) for d in already) or any(
                span.overlaps(a) for a in accepted
            ):
                continue
            span.decode(entity)
            accepted.append(span)
            fixed_now.append((span.start, span.end, entity))
        log_steps.append(RefinementStep(j, n, quota, tuple(fixed_now)))

    for span in spans:
        if span.state is SpanState.UNDECIDED:
            span.state = SpanState.REJECTED
    return spans, log_steps


def _map_ordered(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


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
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                raise DataError(f"{path}: line {lineno}: invalid JSON") from None
            try:
                doc_id = obj["doc_id"]
                tokens = tuple(obj["tokens"])
            except (KeyError, TypeError):
                raise DataError(f"{path}: line {lineno}: missing doc_id/tokens") from None
            golds = []
            for g in obj.get("golds", []):
                try:
                    golds.append(
                        GoldAnnotation(
                            int(g["start"]),
                            int(g["end"]),
                            normalize_entity(g["entity"]),
                        )
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    raise DataError(
                        f"{path}: line {lineno}: bad gold annotation ({exc})"
                    ) from None
            golds.sort(key=lambda g: (g.start, g.end))
            for a, b in zip(golds, golds[1:]):
                if b.start < a.end:
                    raise DataError(
                        f"{path}: line {lineno}: overlapping gold spans in {doc_id!r}"
                    )
            for g in golds:
                if g.end > len(tokens):
                    raise DataError(
                        f"{path}: line {lineno}: gold span exceeds document length"
                    )
            docs.append(Document(doc_id, tokens, tuple(golds)))
    return docs


def load_redirects(path) -> dict[str, str]:
    """Load TSV redirect rows ``from<TAB>to``; both sides normalize to symbols."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise DataError(f"{path}: line {lineno}: expected 2 tab-separated fields")
            src, dst = (normalize_entity(f) for f in fields)
            if src in out:
                raise DataError(f"{path}: line {lineno}: duplicate redirect for {src!r}")
            out[src] = dst
    return out
