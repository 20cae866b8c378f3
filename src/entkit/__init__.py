"""Entity-aware masked-LM toolkit.

Aligns an entity embedding space with a wordpiece embedding space via least
squares, builds entity-enhanced inputs, filters and evaluates cloze-probe
benchmarks, links entity mentions with prior-biased iterative decoding, and
resolves surface forms through a SPARQL endpoint.
"""

__version__ = "0.1.0"
