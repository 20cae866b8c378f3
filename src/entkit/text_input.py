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
    """The walk behind both builders: ``[CLS]``, then each word in order,
    then ``[SEP]``. A ``[MASK]`` word is a Mask token and any other word
    outside the mentions is its wordpieces. Each mention is rendered per
    ``mode`` and, when it carries a marker wordpiece, wrapped in a pair of
    it. A mention is resolvable when ``entity_space`` holds its entity id."""
    words = sentence.split()
    rendered: dict[int, tuple[int, list[Token]]] = {}
    prev_end = 0
    for m, marker in sorted(marked, key=lambda t: t[0].start):
        if m.end > len(words):
            raise ValueError(
                f"mention [{m.start}, {m.end}) exceeds sentence length {len(words)}"
            )
        if m.start < prev_end:
            raise ValueError("mentions overlap")
        surface = words[m.start : m.end]
        if MASK_WORD in surface:
            raise ValueError("a mention span may not cover the [MASK] word")
        prev_end = m.end
        if (mode is not InputMode.BERT and entity_space is not None
                and m.entity_id in entity_space.vocab):
            part = [Token.entity(m.entity_id)]
            if mode is InputMode.CONCAT:
                part += [Token.wordpiece("/"), *wordpiece_tokens(surface, vocab)]
        else:
            part = wordpiece_tokens(surface, vocab)
        if marker is not None:
            part = [Token.wordpiece(marker), *part, Token.wordpiece(marker)]
        rendered[m.start] = (m.end, part)
    tokens = [Token.wordpiece("[CLS]")]
    i = 0
    while i < len(words):
        if i in rendered:
            i, part = rendered[i]
            tokens.extend(part)
            continue
        if words[i] == MASK_WORD:
            tokens.append(Token.mask())
        else:
            tokens.extend(wordpiece_tokens([words[i]], vocab))
        i += 1
    tokens.append(Token.wordpiece("[SEP]"))
    return TokenSequence(tuple(tokens))
