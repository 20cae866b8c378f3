"""Shared exception types."""


class DataError(ValueError):
    """Malformed or contract-violating input data (files, tables, datasets).

    The CLI maps this to exit code 2. Subclasses ValueError so library callers
    that only care about "bad value" semantics can catch the base class.
    """


class TransportError(Exception):
    """The SPARQL endpoint could not be reached or answered garbage.

    The CLI maps this to exit code 3.
    """
