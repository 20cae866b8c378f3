"""Entity-aware masked-LM toolkit.

Aligns an entity embedding space with a wordpiece embedding space via least
squares, builds entity-enhanced inputs, filters and evaluates cloze-probe
benchmarks, links entity mentions with prior-biased iterative decoding, and
resolves surface forms through a SPARQL endpoint.
"""

__version__ = "0.1.0"

from .alignment import (
    AlignmentMap,
    apply_alignment,
    derive_entity_space,
    fit_alignment,
    load_alignment,
    save_alignment,
)
from .embeddings import (
    ENTITY_PREFIX,
    EmbeddingSpace,
    SpaceKind,
    Vocabulary,
    load_space,
    save_space,
    shared_vocabulary,
)
from .errors import DataError
from .scorer import (
    AffineHead,
    ReferenceScorer,
    embed_sequence,
    head_gradients,
    reference_contextualize,
)
from .text_input import (
    InputMode,
    MentionSpan,
    Token,
    TokenSequence,
    build_input,
    build_rc_input,
    wordpiece_tokenize,
)
