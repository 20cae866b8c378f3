"""Entity symbols: an entity id is a Wikipedia title behind the ``ENTITY/``
prefix. This module imports nothing, so a command that only needs the
prefix, such as ``resolve``, starts without numpy."""

ENTITY_PREFIX = "ENTITY/"


def is_entity_symbol(symbol: str) -> bool:
    return symbol.startswith(ENTITY_PREFIX)
