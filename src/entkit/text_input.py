"""Token sequences and entity-aware input construction.

Inputs are built from whitespace-tokenized sentences. A mention with a known
entity vector can be injected next to (concat mode) or instead of (replace
mode) its surface wordpieces; a mention without one falls back to plain
wordpieces for that mention only. The literal word ``[MASK]`` outside any
mention becomes a Mask token.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

from .symbols import ENTITY_PREFIX, is_entity_symbol

if TYPE_CHECKING:
    from .embeddings import EmbeddingSpace, Vocabulary

UNK = "[UNK]"
MASK_WORD = "[MASK]"

_SPECIAL_WORDS = {MASK_WORD, "[CLS]", "[SEP]", UNK, "[PAD]"}
_PUNCT = set(string.punctuation)


class TokenKind(Enum):
    WORDPIECE = "wordpiece"
    ENTITY = "entity"
    MASK = "mask"
    EMASK = "emask"


@dataclass(frozen=True)
class Token:
    """One input position: a wordpiece, an entity, a mask, or an entity mask.
    Separators such as ``[CLS]`` and ``/`` are wordpieces."""

    kind: TokenKind
    text: str = ""
    candidates: tuple[str, ...] = ()

    @staticmethod
    def wordpiece(piece: str) -> "Token":
        return Token(TokenKind.WORDPIECE, piece)

    @staticmethod
    def entity(entity_id: str) -> "Token":
        if not is_entity_symbol(entity_id):
            raise ValueError(f"entity id must carry the {ENTITY_PREFIX!r} prefix: {entity_id!r}")
        return Token(TokenKind.ENTITY, entity_id)

    @staticmethod
    def mask() -> "Token":
        return Token(TokenKind.MASK)

    @staticmethod
    def emask(candidates: Iterable[str]) -> "Token":
        cands = tuple(candidates)
        if not cands:
            raise ValueError("an entity mask needs a non-empty candidate list")
        return Token(TokenKind.EMASK, candidates=cands)

    def render(self) -> str:
        """Human-readable text form, used in reports and tests."""
        if self.kind in (TokenKind.WORDPIECE, TokenKind.ENTITY):
            return self.text
        if self.kind is TokenKind.MASK:
            return MASK_WORD
        return "[E-MASK]"


@dataclass(frozen=True)
class TokenSequence:
    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def render(self) -> list[str]:
        return [t.render() for t in self.tokens]


@dataclass(frozen=True)
class MentionSpan:
    """Half-open token offsets [start, end) into a whitespace-split sentence."""

    start: int
    end: int
    entity_id: str | None = None

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"bad mention span [{self.start}, {self.end})")


class InputMode(Enum):
    BERT = "bert"
    CONCAT = "concat"
    REPLACE = "replace"


def wordpiece_tokenize(text: str, vocab: Vocabulary) -> list[str]:
    """The pieces of ``wordpiece_tokens`` for the whitespace words of ``text``."""
    return [t.text for t in wordpiece_tokens(text.split(), vocab)]


def wordpiece_tokens(words: Iterable[str], vocab: Vocabulary) -> list[Token]:
    """Greedy longest-match-first wordpiece tokenization of whitespace words.

    Within a word not present in the vocabulary, each punctuation character
    is split off as its own unit first. Pieces after the first carry the
    ``##`` continuation prefix. A word (or unit) with no decomposition
    becomes a single ``[UNK]``.
    """
    out: list[Token] = []
    for word in words:
        for unit in _punct_units(word, vocab):
            out.extend(Token.wordpiece(p) for p in _wordpiece_word(unit, vocab))
    return out


def _punct_units(word: str, vocab: Vocabulary) -> list[str]:
    if word in vocab.index or word in _SPECIAL_WORDS:
        return [word]
    units: list[str] = []
    buf: list[str] = []
    for ch in word:
        if ch in _PUNCT:
            if buf:
                units.append("".join(buf))
                buf = []
            units.append(ch)
        else:
            buf.append(ch)
    if buf:
        units.append("".join(buf))
    return units


def _wordpiece_word(word: str, vocab: Vocabulary) -> list[str]:
    if word in vocab.index:
        return [word]
    pieces: list[str] = []
    start = 0
    while start < len(word):
        end = len(word)
        match = None
        while start < end:
            sub = word[start:end]
            if start > 0:
                sub = "##" + sub
            if sub in vocab.index:
                match = sub
                break
            end -= 1
        if match is None:
            return [UNK]
        pieces.append(match)
        start = end
    return pieces if pieces else [UNK]


def build_input(
    sentence: str,
    mentions: Sequence[MentionSpan],
    mode: InputMode,
    entity_space: EmbeddingSpace | None,
    vocab: Vocabulary,
) -> TokenSequence:
    """Build a CLS/SEP-framed token sequence with optional entity injection.

    In bert mode the output is exactly the wordpiece tokenization of the
    sentence regardless of mentions. In concat mode a resolvable mention
    contributes ``Entity / surface-pieces``; in replace mode the entity token
    stands in for the surface. Unresolvable mentions fall back to plain
    wordpieces individually.
    """
    return _framed_input(
        sentence, [(m, None) for m in mentions], mode, entity_space, vocab
    )


def build_rc_input(
    sentence: str,
    subject: MentionSpan,
    object_: MentionSpan,
    mode: InputMode,
    entity_space: EmbeddingSpace | None,
    vocab: Vocabulary,
) -> TokenSequence:
    """Build a relation-classification input with marked argument spans.

    The subject span is wrapped in a ``#`` pair and the object span in a
    ``$`` pair; entity injection inside the markers follows ``mode`` exactly
    as in ``build_input``. Spans must be disjoint.
    """
    if (subject.start, subject.end) == (object_.start, object_.end):
        raise ValueError("subject and object spans are identical")
    return _framed_input(
        sentence, [(subject, "#"), (object_, "$")], mode, entity_space, vocab
    )


def _framed_input(
    sentence: str,
    marked: Sequence[tuple[MentionSpan, str | None]],
    mode: InputMode,
    entity_space: EmbeddingSpace | None,
    vocab: Vocabulary,
) -> TokenSequence:
    """The layout behind both builders: each mention is rendered per
    ``mode`` and, when it carries a marker wordpiece, wrapped in a pair of it.
    A mention is resolvable when ``entity_space`` holds its entity id."""
    words = sentence.split()
    mentions = [(i, i + 1, [Token.mask()]) for i, w in enumerate(words) if w == MASK_WORD]
    prev_end = 0
    for m, marker in sorted(marked, key=lambda t: t[0].start):
        if m.end > len(words):
            raise ValueError(
                f"mention [{m.start}, {m.end}) exceeds sentence length {len(words)}"
            )
        if m.start < prev_end:
            raise ValueError("mentions overlap")
        if MASK_WORD in words[m.start : m.end]:
            raise ValueError("a mention span may not cover the [MASK] word")
        prev_end = m.end
        parts: list[Part] = [range(m.start, m.end)]
        if (mode is not InputMode.BERT and entity_space is not None
                and m.entity_id in entity_space.vocab):
            entity = Token.entity(m.entity_id)
            if mode is InputMode.CONCAT:
                parts = [entity, Token.wordpiece("/"), *parts]
            else:
                parts = [entity]
        if marker is not None:
            parts = [Token.wordpiece(marker), *parts, Token.wordpiece(marker)]
        mentions.append((m.start, m.end, parts))
    return expand(layout(len(words), mentions), words, vocab)


# One part of a framed input: a Token, or a range of words rendered as their
# wordpieces.
Part = Token | range


def layout(n_words: int, mentions: Iterable[tuple[int, int, Sequence[Part]]]) -> list[Part]:
    """The parts of a ``[CLS] … [SEP]`` frame over words ``0 .. n_words-1``.

    Each mention ``(start, end, parts)``, taken in start order, stands in for
    words ``start .. end-1``; a mention that starts inside an earlier one is
    skipped, so of two that share a start the first wins. Every run of words
    between mentions is one range part.
    """
    out: list[Part] = [Token.wordpiece("[CLS]")]
    i = 0
    for start, end, parts in sorted(mentions, key=lambda m: m[0]):
        if start < i:
            continue
        if i < start:
            out.append(range(i, start))
        out.extend(parts)
        i = end
    if i < n_words:
        out.append(range(i, n_words))
    out.append(Token.wordpiece("[SEP]"))
    return out


def expand(parts: Iterable[Part], words: Sequence[str], vocab: Vocabulary) -> TokenSequence:
    """The token sequence of ``parts``, each range replaced by the
    wordpieces of its words."""
    tokens: list[Token] = []
    for part in parts:
        if isinstance(part, range):
            tokens.extend(wordpiece_tokens(words[part.start : part.stop], vocab))
        else:
            tokens.append(part)
    return TokenSequence(tuple(tokens))
