"""Per-layer metrics from the spans and counters of traced passes.

A layer is an entkit module; each traced public function is a span named
``<module>.<function>``. A span's self time is its duration minus the
durations of its direct children, so self times of one process add up to the
duration of ``cli.main``. For each command::

    wall = cli.startup_s + sum(layer self times) + cli self time + unaccounted

where ``cli.startup_s`` runs from the parent starting the process to
``main`` entry and ``unaccounted`` is interpreter exit and the span dump.
The identity holds by construction: time inside ``main`` that no traced
layer function covers lands in the cli self time. The accounting check
therefore only bounds exit and dump time: a command whose unaccounted time
exceeds ``UNACCOUNTED_SHARE`` of its wall time (and ``UNACCOUNTED_FLOOR_S``)
fails it. What the layers miss shows instead as ``cli_share``, the cli self
time as a share of ``main``, printed per command.

Every metric is summed over the commands of a pass; the reported value is
the median over traced passes. Counts are the same in every pass, so each
ratio is computed from the medians of its bases, which are reported with it.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

UNACCOUNTED_SHARE = 0.10
UNACCOUNTED_FLOOR_S = 0.25

# Ratio metric -> (numerator, denominator).
RATIOS = {
    "alignment.entity_use_ratio":
        ("alignment.entities_referenced", "alignment.derive_entity_space.rows"),
    "scorer.contextualize_use_ratio":
        ("scorer.mask_state.calls", "scorer.contextual_vectors"),
    "lama_bench.name_probe_distinct_ratio":
        ("lama_bench.name_probe_pairs", "lama_bench.name_probes"),
    "entity_linking.decode_ratio":
        ("entity_linking.spans_decoded", "entity_linking.span_scorings"),
    "wikidata_client.cache_hit_ratio":
        ("wikidata_client.cache_hits", "wikidata_client.surfaces"),
}


def read_spans(info: dict):
    n = info["span_count"]
    with open(info["spans"], "rb") as fh:
        name = np.fromfile(fh, dtype=np.int32, count=n)
        parent = np.fromfile(fh, dtype=np.int32, count=n)
        start = np.fromfile(fh, dtype=np.float64, count=n)
        end = np.fromfile(fh, dtype=np.float64, count=n)
    return name, parent, start, end


def command_metrics(rec: dict) -> tuple[dict, str, bool]:
    """Per-layer metrics of one traced command and its accounting line."""
    info = rec["info"]
    names = info["names"]
    name, parent, start, end = read_spans(info)
    duration = end - start
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                             minlength=len(name))
    self_time = duration - child_time
    self_by_name = np.bincount(name, weights=self_time, minlength=len(names))
    calls_by_name = np.bincount(name, minlength=len(names))

    m: dict[str, float] = defaultdict(float)
    cli_self = 0.0
    for i, label in enumerate(names):
        if label.startswith("cli."):
            cli_self += self_by_name[i]
        else:
            m[f"{label}.self_s"] += self_by_name[i]
        m[f"{label}.calls"] += int(calls_by_name[i])
    kind = rec["cmd"]["kind"]
    m[f"cli.{kind}.self_s"] += cli_self
    startup = info["t_main"] - rec["t0"]
    m["cli.startup_s"] += startup
    for key, value in info["counters"].items():
        m[key] += value
    m["wikidata_client.transport_queries"] += m["wikidata_client.query.calls"]
    m["wikidata_client.cache_hits"] += (
        info["counters"].get("wikidata_client.surfaces", 0)
        - m["wikidata_client.resolve_surface.calls"])

    layer_total = float(self_time.sum()) - cli_self
    unaccounted = rec["wall"] - startup - float(self_time.sum())
    m["trace.unaccounted_s"] += unaccounted
    ok = unaccounted <= max(UNACCOUNTED_SHARE * rec["wall"], UNACCOUNTED_FLOOR_S)
    main_s = info["t_main_end"] - info["t_main"]
    line = (f"{rec['cmd']['name']} wall_s={rec['wall']:.4f} startup_s={startup:.4f} "
            f"layers_self_s={layer_total:.4f} cli_self_s={cli_self:.4f} "
            f"cli_share={cli_self / main_s if main_s > 0 else 0.0:.4f} "
            f"unaccounted_s={unaccounted:.4f} spans={len(name)} "
            f"{'accounted' if ok else 'NOT ACCOUNTED'}")
    return m, line, ok


def pass_layers(records: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer sums over the commands of one traced pass and the
    accounting line of each command. A command whose spans are missing or
    do not account for its wall time gets a problem added to its record.

    Call it before the pass's output directory is reused: it reads the
    span files there.
    """
    total: dict[str, float] = defaultdict(float)
    report = []
    for rec in records:
        if "spans" not in rec["info"]:
            rec["problems"].append("no spans written")
            continue
        m, line, ok = command_metrics(rec)
        report.append(line)
        if not ok:
            rec["problems"].append("layer self times do not account for wall time")
        for key, value in m.items():
            total[key] += value
    return total, report


def aggregate(per_pass: list[dict]) -> tuple[dict, list[str]]:
    """Median over traced passes of every metric, ratios of the medians of
    their bases, and a line per ratio giving those bases."""
    keys = set().union(*per_pass)
    out = {k: statistics.median(p.get(k, 0.0) for p in per_pass) for k in sorted(keys)}
    report = []
    for ratio, (num, den) in RATIOS.items():
        n, d = out.get(num, 0.0), out.get(den, 0.0)
        out[ratio] = n / d if d else 0.0
        report.append(f"{ratio}={out[ratio]:.6g} ({num}={n:g}, {den}={d:g})")
    return out, report
