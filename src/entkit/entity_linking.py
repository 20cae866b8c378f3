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
import os
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain
from math import log
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ._candidate_table import Candidate, CandidateTable, _ranges, read_table
from ._tsv import tsv_rows
from .embeddings import EmbeddingSpace, Vocabulary
from .errors import DataError
from .scorer import AffineHead, candidate_gradients, candidate_probs
from .symbols import is_entity_symbol
from .text_input import Token, wordpiece_tokens

logger = logging.getLogger(__name__)

REDIRECT_DEPTH_LIMIT = 16


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


def span_keys(tokens: Sequence[str], max_span: int) -> Iterator[tuple[int, int, str]]:
    """``(start, end, surface)`` of every span of up to ``max_span`` tokens,
    in (start, end) lexicographic order: the keys a table is looked up by."""
    for start in range(len(tokens)):
        for end in range(start + 1, min(start + max_span, len(tokens)) + 1):
            yield start, end, " ".join(tokens[start:end])


def load_candidate_table(
    path, max_span: int = 7, docs: Iterable[Sequence[str]] | None = None
) -> CandidateTable:
    """Load TSV rows ``surface<TAB>entity<TAB>prior``.

    Priors must lie in (0, 1]; they need not sum to one per surface.
    Duplicate (surface, entity) rows are an error. Keys longer than
    ``max_span`` whitespace tokens are rejected and counted.

    Given ``docs``, token sequences, and a regular file, the table holds
    candidates only for surfaces among their ``span_keys`` (and, on a hash
    collision, perhaps a few more), so its memory grows with the documents,
    not with the file. Every row is still checked, and ``entities`` holds
    the entities of every row within the length limit. Duplicate pairs
    among the rows not held are found from one hash per (surface, entity)
    pair; a bad row or two equal hashes make ``read_table`` read the file
    again holding every row, the exact pass, which raises the line-numbered
    error of the first bad row, or finds none when the hashes merely
    collide. Without ``docs`` (the whole table, as tests load it), or from
    a file that cannot be read twice, such as a pipe, the exact pass is the
    load.
    """
    if docs is None or not os.path.isfile(path):
        table, _ = read_table(path, max_span)
    else:
        surfaces = (key for tokens in docs for _, _, key in span_keys(tokens, max_span))
        try:
            table, tie = read_table(path, max_span, surfaces)
        except (DataError, UnicodeDecodeError):
            table, tie = None, True
        if tie:
            # Raises the first bad row's error. A file that changed since the
            # first pass read it loads as it reads now.
            whole, _ = read_table(path, max_span)
            table = whole if table is None else table
    if table.rejected_long_keys:
        logger.info("candidate table: rejected %d over-length keys", table.rejected_long_keys)
    logger.info("candidate table: kept %d of %d rows (%d surfaces)",
                sum(map(len, table.spans.values())),
                len(table.entities) + table.rejected_long_keys, len(table.spans))
    return table


def generate_candidates(
    tokens: Sequence[str],
    table: Mapping[str, Sequence[Candidate]],
    max_span: int = 7,
) -> list[CandidateSpan]:
    """Every span of up to ``max_span`` tokens whose joined surface is a
    table key, in (start, end) lexicographic order. Overlapping output is
    intended; the decoder resolves conflicts."""
    return [
        CandidateSpan(start, end, tuple(cands))
        for start, end, key in span_keys(tokens, max_span)
        if (cands := table.get(key))
    ]


def _mask_token(span: CandidateSpan, use_emask: bool) -> Token:
    if use_emask:
        return Token.emask([c.entity for c in span.candidates])
    return Token.mask()


# Spans per block of documents: a refinement round and a training pass take
# their documents in blocks of whole documents holding at most this many
# spans between them (a document with more is a block of its own), so the
# arrays of a block stay bounded. No result depends on the block size.
SPAN_BLOCK = 128


def _blocks(items: Sequence, size) -> Iterable[list]:
    """Consecutive runs of ``items`` whose ``size`` adds up to at most
    ``SPAN_BLOCK``, or a single item that is larger on its own."""
    block: list = []
    total = 0
    for item in items:
        if block and total + size(item) > SPAN_BLOCK:
            yield block
            block, total = [], 0
        block.append(item)
        total += size(item)
    if block:
        yield block


class _InputKeys:
    """An integer key for each distinct token of a run's linking inputs.
    Each distinct word is tokenized once."""

    def __init__(self, vocab: Vocabulary, use_emask: bool):
        self.tokens: list[Token] = []
        self._keys: dict[Token, int] = {}
        self._words: dict[str, list[int]] = {}
        self._vocab = vocab
        self._use_emask = use_emask
        self.cls, self.sep, self.slash, self.star = (
            self.key(Token.wordpiece(p)) for p in ("[CLS]", "[SEP]", "/", "*")
        )

    def key(self, token: Token) -> int:
        k = self._keys.get(token)
        if k is None:
            k = self._keys[token] = len(self.tokens)
            self.tokens.append(token)
        return k

    def words(self, tokens: Sequence[str]) -> tuple[np.ndarray, list[int]]:
        """The keys of the wordpieces of ``tokens`` in order, and the offset
        of each word's first piece among them (one more for the end)."""
        per_word = []
        for w in tokens:
            keys = self._words.get(w)
            if keys is None:
                keys = self._words[w] = [
                    self.key(t) for t in wordpiece_tokens([w], self._vocab)
                ]
            per_word.append(keys)
        offset = [0, *accumulate(len(k) for k in per_word)]
        return np.fromiter(chain.from_iterable(per_word), np.intp, offset[-1]), offset

    def mask(self, span: CandidateSpan) -> int:
        return self.key(_mask_token(span, self._use_emask))


def _block_inputs(keys: _InputKeys, block) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The linking inputs of a block of ``(tokens, spans, decoded)``
    documents, whose decoded lists hold sorted, pairwise disjoint ``(start,
    end, entity)`` spans inside the document: every input's keys end to
    end, each input's length, and each input's mask position.

    Each document is laid out once as its base: framed, with every decoded
    span as its entity. An input is its document's base up to the scored
    span, with a decoded span that overlaps the scored one reverted to its
    words, then the mask, ``/``, the span's pieces and ``*``, then the
    words of that reverted span past the scored one and the rest of the
    base. So each input is eight ranges of one key array (``/``, ``*``,
    the masks, then each document's base and pieces), and one gather takes
    every input of the block.
    """
    n_spans = sum(len(spans) for _, spans, _ in block)
    parts: list = [[keys.slash, keys.star], [keys.mask(s) for _, spans, _ in block for s in spans]]
    starts, lengths, positions = [], [], []
    at = 2 + n_spans  # where the next document's base starts
    for tokens, spans, decoded in block:
        literal, offset = keys.words(tokens)
        parts.append([keys.cls])
        # Where each word starts in the base (words inside a decoded span
        # have no place of their own), and each inner boundary of a decoded
        # span mapped to the span's start and end.
        at_word, left_of, right_of = [], {}, {}
        shift, w = at + 1, 0
        for a, b, entity in decoded:
            parts += [literal[offset[w] : offset[a]], [keys.key(Token.entity(entity))]]
            at_word += [shift + offset[v] for v in range(w, a + 1)]
            at_word += [None] * (b - a - 1)
            shift -= offset[b] - offset[a] - 1
            left_of.update(dict.fromkeys(range(a + 1, b), a))
            right_of.update(dict.fromkeys(range(a + 1, b), b))
            w = b
        parts += [literal[offset[w] :], [keys.sep]]
        at_word += [shift + offset[v] for v in range(w, len(tokens) + 1)]
        lit = at_word[-1] + 1  # the document's pieces follow its base
        for s in spans:
            x, y = s.start, s.end
            if y > len(tokens):
                raise ValueError(f"span [{x}, {y}) exceeds document length")
            left, right = left_of.get(x, x), right_of.get(y, y)
            cut, resume = at_word[left], at_word[right]
            starts.append((at, lit + offset[left], 2 + len(positions), 0,
                           lit + offset[x], 1, lit + offset[y], resume))
            lengths.append((cut - at, offset[x] - offset[left], 1, 1, offset[y] - offset[x],
                            1, offset[right] - offset[y], lit - resume))
            positions.append(cut - at + offset[x] - offset[left])
        parts.append(literal)
        at = lit + len(literal)
    src = np.concatenate(parts).astype(np.int32)
    length = np.array(lengths, dtype=np.intp)
    index = _ranges(np.array(starts, dtype=np.intp).ravel(), length.ravel())
    return src[index], length.sum(axis=1), positions


def span_mask_states(
    docs: Sequence[tuple[Sequence[str], Sequence[CandidateSpan],
                         Mapping[tuple[int, int], str] | None]],
    scorer,
    use_emask: bool = True,
    keys: _InputKeys | None = None,
) -> np.ndarray:
    """Mask states of the spans of many documents, as one ``(S, d)`` array.

    ``docs`` holds ``(tokens, spans, decoded)`` triples; row s, counted
    through the documents' spans in order, is the state at the mask of the
    linking input of span s: ``[CLS]``, the words before it, the entity mask
    (the mean of its candidates; a plain mask without ``use_emask``), ``/``,
    its wordpieces, ``*``, the words after it, ``[SEP]``, where a decoded
    span that does not overlap it renders as its entity. The decoded spans
    that end inside a document must be disjoint, as the decoder makes them:
    one that is empty, starts before 0 or overlaps another is a ValueError.
    Those past the document's end are ignored.
    Documents go in blocks of ``SPAN_BLOCK`` spans; each block's inputs are
    index arrays gathered from its documents' key arrays (see
    ``_block_inputs``), and one ``scorer.mask_states`` call embeds each
    distinct token of the block once. ``keys`` carries the tokenized words
    and the token keys from one call to the next.
    """
    keys = keys or _InputKeys(scorer.wp_vocab, use_emask)
    scored = []
    for tokens, spans, decoded in docs:
        ordered = sorted(
            (a, b, entity) for (a, b), entity in (decoded or {}).items() if b <= len(tokens)
        )
        end = 0
        for a, b, _ in ordered:
            if not end <= a < b:
                raise ValueError(f"bad decoded span [{a}, {b}): empty, before 0 "
                                 "or overlapping another")
            end = b
        if spans:
            scored.append((tokens, spans, ordered))
    if not scored:
        raise ValueError("no spans to score")

    states = []
    for block in _blocks(scored, lambda d: len(d[1])):
        keyed, length, pos = _block_inputs(keys, block)
        # The block's tokens, and its inputs as indices into them.
        used = np.flatnonzero(np.bincount(keyed, minlength=len(keys.tokens)))
        local = np.zeros(len(keys.tokens), dtype=np.int32)
        local[used] = np.arange(len(used))
        inputs = zip(np.split(local[keyed], np.cumsum(length)[:-1]), pos)
        states.append(scorer.mask_states([keys.tokens[k] for k in used], list(inputs)))
    return np.concatenate(states)


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


@np.errstate(all="ignore")
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
    entity masks from. Mask states are computed once up front, by one
    ``span_mask_states`` call over the documents, because the encoder takes
    no gradient. Returns the loss trajectory: mean loss at each epoch's
    starting parameters, plus the final loss (length ``epochs + 1``). A
    non-finite loss is a DataError.
    """
    if not examples:
        raise ValueError("no training examples")
    by_doc: dict[tuple[str, ...], list[int]] = {}
    for i, ex in enumerate(examples):
        by_doc.setdefault(ex.tokens, []).append(i)
    groups = candidate_groups([ex.candidates for ex in examples], scorer.ent)
    states = np.empty((len(examples), scorer.ent.dim))
    states[[i for members in by_doc.values() for i in members]] = span_mask_states(
        [(tokens, [examples[i].span for i in members], None)
         for tokens, members in by_doc.items()],
        scorer, use_emask,
    )
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
        if not np.isfinite(losses[-1]):
            raise DataError(f"training loss of epoch {epoch} is not finite")
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
    doc: int = 0  # the document's index among those refined together


@np.errstate(all="ignore")
def iterative_refine(
    docs: Sequence[tuple[Sequence[str], Sequence[CandidateSpan]]],
    scorer,
    head: AffineHead,
    eps: NullEntityParams,
    iterations: int = 3,
    use_emask: bool = True,
) -> tuple[list[CandidateSpan], list[RefinementStep]]:
    """Decode, in place, the spans of each ``(tokens, spans)`` document over
    ``iterations`` rounds of rescoring.

    Each round rescores the undecided spans, and no others, against their
    document's current partial decoding, with one ``candidate_groups``,
    one ``span_mask_states`` and one ``candidate_probs`` call per block of
    documents (see ``SPAN_BLOCK``). Within a document, with m spans already
    decoded and n undecided spans whose argmax is a real entity, the round
    fixes the k = ceil(j (m + n) / J) - m most confident of those n (by
    null-entity improbability, ties toward the earlier span), skipping any
    span that overlaps an already fixed one; skips do not count toward k.
    A document's rounds end early once its n reaches zero. Spans still
    undecided at the end are rejected. Returns every document's spans, in
    document order, and the steps of each document's rounds, in document
    order.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    docs = [(tokens, list(spans)) for tokens, spans in docs]
    keys = _InputKeys(scorer.wp_vocab, use_emask)
    steps: list[list[RefinementStep]] = [[] for _ in docs]
    going = range(len(docs))

    for j in range(1, iterations + 1):
        # (document, its decoded spans, its undecided spans) of this round.
        rounds = []
        for d in going:
            spans = docs[d][1]
            undecided = [s for s in spans if s.state is SpanState.UNDECIDED]
            if undecided:
                taken = [s for s in spans if s.state is SpanState.DECODED]
                rounds.append((d, taken, undecided))
        if not rounds:
            break
        going = []
        for block in _blocks(rounds, lambda r: len(r[2])):
            undecided = [s for _, _, und in block for s in und]
            groups = candidate_groups([s.candidates for s in undecided], scorer.ent)
            states = span_mask_states(
                [(docs[d][0], und, {(s.start, s.end): s.entity for s in taken})
                 for d, taken, und in block],
                scorer, use_emask, keys,
            )
            best = np.empty(len(undecided), dtype=np.intp)
            p_null = np.empty(len(undecided))
            for (rows, _, _), p in zip(groups, candidate_probs(
                    head.apply(states), groups, (eps.e, eps.b))):
                best[rows] = p.argmax(axis=1)
                p_null[rows] = p[:, -1]
            at = 0
            for d, taken, und in block:
                step = _decode_round(d, j, iterations, taken, und,
                                     best[at : at + len(und)].tolist(),
                                     p_null[at : at + len(und)].tolist())
                at += len(und)
                steps[d].append(step)
                if step.selectable:
                    going.append(d)

    spans = [s for _, doc_spans in docs for s in doc_spans]
    for span in spans:
        if span.state is SpanState.UNDECIDED:
            span.state = SpanState.REJECTED
    return spans, [step for doc_steps in steps for step in doc_steps]


def _decode_round(doc: int, j: int, iterations: int, taken: list[CandidateSpan],
                  undecided: list[CandidateSpan], best: list[int],
                  p_null: list[float]) -> RefinementStep:
    """Round j of one document, as ``iterative_refine`` describes it, from
    each undecided span's best candidate and null-entity probability."""
    # (p(null), start, end, index) of each selectable span.
    selectable = sorted(
        (p, s.start, s.end, i)
        for i, (s, b, p) in enumerate(zip(undecided, best, p_null))
        if b < len(s.candidates)
    )
    m = len({(s.start, s.end) for s in taken})
    n = len(selectable)
    if n == 0:
        return RefinementStep(j, 0, 0, (), doc)
    # k = ceil(j (m + n) / J) - m, in exact integer arithmetic
    quota = max(0, -((-j * (m + n)) // iterations) - m)
    accepted: list[CandidateSpan] = []
    for *_, i in selectable:
        if len(accepted) == quota:
            break
        span = undecided[i]
        if not any(span.overlaps(t) for t in taken):
            span.decode(span.candidates[best[i]].entity)
            accepted.append(span)
            taken.append(span)
    return RefinementStep(j, n, quota, tuple((s.start, s.end, s.entity) for s in accepted), doc)


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
        # Imported here: a run whose golds are all symbols never needs it.
        from .wikidata_client import url_to_entity_symbol

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
