"""Run one entkit CLI command as a benchmark child process.

    python3 bench/child.py INFO_JSON TRACE RUN_ID -- <entkit arguments>

The child imports entkit from ``src/`` (the parent sets PYTHONPATH), wraps
the input-loading functions with end-time stamps, optionally traces every
public function of every entkit module, runs ``entkit.cli.main`` and writes
INFO_JSON at exit: the exit code, the monotonic times of ``main`` entry and
return and of the end of the last input-loading call, the peak RSS of the
process since exec, and, when tracing, the layer counters and the path of
the binary span file next to INFO_JSON.

Untraced, the child imports only ``entkit.cli``, and an import hook stamps
the loaders of each entkit module when it is first imported, so the child
imports no more of entkit, and no earlier, than the CLI itself does.
Traced, it imports every module up front to wrap its functions.

Time stamps use ``time.perf_counter``, which on Linux is CLOCK_MONOTONIC
and therefore comparable with the parent's stamps.

Spans are kept in memory in four typed arrays (name id, parent span, start,
end) and written once at exit; the parent derives self times from them.
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import inspect
import json
import sys
from array import array
from time import perf_counter as clock

MODULES = ("cli", "embeddings", "alignment", "text_input", "scorer",
           "lama_bench", "entity_linking", "wikidata_client")

# Input-loading calls; setup ends when the last of them returns.
LOADERS = (
    ("embeddings", "load_space"),
    ("alignment", "load_alignment"),
    ("alignment", "derive_entity_space"),
    ("lama_bench", "load_lama_dir"),
    ("lama_bench", "load_templates"),
    ("entity_linking", "load_candidate_table"),
    ("entity_linking", "load_documents"),
    ("wikidata_client", "load_cache"),
    ("wikidata_client", "load_resolution_map"),
)

# Public methods traced as layer boundaries; other methods are accessors.
METHODS = (
    ("scorer", "ReferenceScorer", ("embed", "contextualize", "mask_state", "score_answers")),
    ("wikidata_client", "FixtureTransport", ("query",)),
)

# A predicate called once per symbol; tracing it would only add overhead.
UNTRACED = {"embeddings.is_entity_symbol"}


def replace_everywhere(old, new, modules) -> None:
    """Rebind every module-level reference to ``old`` (including names
    imported with ``from ... import``) to ``new``."""
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, name, new)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.entities: set[str] = set()
        self.probe_pairs: set[tuple[str, str]] = set()

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def parent_name(self) -> str | None:
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    def wrap(self, label: str, fn, hook=None):
        if label not in self.name_id:
            self.name_id[label] = len(self.names)
            self.names.append(label)
        nid = self.name_id[label]
        stack, names, parents, starts, ends = (
            self.stack, self.name, self.parent, self.start, self.end)

        def traced(*args, **kwargs):
            span = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[span] = t0
                ends[span] = t1
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self, mods: dict) -> None:
        everywhere = list(mods.values())
        for short, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                label = f"{short}.{name}"
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or label in UNTRACED):
                    continue
                replace_everywhere(fn, self.wrap(label, fn, HOOKS.get(label)), everywhere)
        for short, cls_name, methods in METHODS:
            cls = getattr(mods[short], cls_name)
            for name in methods:
                label = f"{short}.{name}"
                setattr(cls, name, self.wrap(label, getattr(cls, name), HOOKS.get(label)))
        # Entity rows fetched while embedding tokens: counted, not timed.
        scorer = mods["scorer"]
        ent_row = scorer._ent_row

        def counted_ent_row(ent, entity_id):
            self.entities.add(entity_id)
            return ent_row(ent, entity_id)

        scorer._ent_row = counted_ent_row

    def dump(self, path: str) -> int:
        with open(path, "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        return len(self.name)

    def summary(self) -> dict:
        counters = dict(self.counters)
        counters["alignment.entities_referenced"] = len(self.entities)
        counters["lama_bench.name_probe_pairs"] = len(self.probe_pairs)
        return counters


def _build_input(tr, args, result):
    mode, mentions = args[2], args[1]
    if mode.value == "bert":
        return
    injected = sum(1 for t in result.tokens if t.kind.value == "entity")
    tr.count("text_input.entity_injected", injected)
    tr.count("text_input.wordpiece_fallback", len(mentions) - injected)


def _render_question(tr, args, result):
    if tr.parent_name() == "lama_bench.person_name_filter":
        tr.count("lama_bench.name_probes")
        tr.probe_pairs.add((args[0].sub_surface, args[1].template))


def _entity_distribution(tr, args, result):
    tr.entities.update(c.entity for c in args[2])
    if tr.parent_name() == "entity_linking.iterative_refine":
        tr.count("entity_linking.span_scorings")


def _iterative_refine(tr, args, result):
    spans, steps = result
    tr.count("entity_linking.iterative_refine.rounds", len(steps))
    tr.count("entity_linking.spans_decoded",
             sum(1 for s in spans if s.state.value == "decoded"))


def _train_linker(tr, args, result):
    tr.entities.update(c.entity for ex in args[0] for c in ex.candidates)


def _resolve_batch(tr, args, result):
    tr.count("wikidata_client.surfaces", len(args[0]))
    tr.count("wikidata_client.endpoint_errors",
             sum(1 for r in result if r.status.value == "endpoint_error"))


HOOKS = {
    "embeddings.load_space":
        lambda tr, a, r: tr.count("embeddings.load_space.rows", len(r.vocab)),
    "alignment.derive_entity_space":
        lambda tr, a, r: tr.count("alignment.derive_entity_space.rows", len(r.vocab)),
    "text_input.build_input": _build_input,
    "scorer.score_answers":
        lambda tr, a, r: tr.count("scorer.score_answers.rows", len(a[2])),
    "scorer.embed_sequence":
        lambda tr, a, r: tr.count("scorer.embed_sequence.tokens", len(a[0].tokens)),
    "scorer.reference_contextualize":
        lambda tr, a, r: tr.count("scorer.contextual_vectors", len(a[0])),
    "lama_bench.render_question": _render_question,
    "entity_linking.generate_candidates":
        lambda tr, a, r: tr.count("entity_linking.generate_candidates.spans", len(r)),
    "entity_linking.iterative_refine": _iterative_refine,
    "entity_linking.entity_distribution": _entity_distribution,
    "entity_linking.build_el_input":
        lambda tr, a, r: tr.count("entity_linking.build_el_input.tokens", len(r)),
    "entity_linking.load_candidate_table":
        lambda tr, a, r: tr.count("entity_linking.load_candidate_table.rows",
                                  sum(len(c) for c in r.spans.values())),
    "entity_linking.train_linker": _train_linker,
    "wikidata_client.resolve_batch": _resolve_batch,
}


def peak_rss_mb() -> float | None:
    """Peak RSS of this process since exec (``VmHWM``), in MiB. Unlike the
    parent's ``ru_maxrss`` of the child, it leaves out the memory the
    benchmark process had when it forked the child."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


class StampOnImport:
    """Meta path finder that hands each entkit module with a loader to
    ``stamp_module`` right after the module has run."""

    def __init__(self, stamp_module):
        self.stamp_module = stamp_module
        self.watched = {f"entkit.{short}" for short, _ in LOADERS}

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.watched:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None:
            run = spec.loader.exec_module

            def exec_module(module):
                run(module)
                self.stamp_module(module)

            spec.loader.exec_module = exec_module
        return spec


def main() -> int:
    info_path, trace, run_id = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py INFO TRACE RUN_ID -- ARGS...")
    argv = sys.argv[5:]
    last_load_end = [None]

    def stamp(fn):
        @functools.wraps(fn)
        def loader(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                last_load_end[0] = clock()
        return loader

    def stamp_module(mod):
        short = mod.__name__.removeprefix("entkit.")
        loaded = [m for n, m in sys.modules.items() if n == "entkit" or n.startswith("entkit.")]
        for owner, name in LOADERS:
            if owner == short:
                fn = getattr(mod, name)
                replace_everywhere(fn, stamp(fn), loaded)

    sys.meta_path.insert(0, StampOnImport(stamp_module))
    if trace:
        mods = {m: importlib.import_module(f"entkit.{m}") for m in MODULES}
        tracer = Tracer()
        tracer.install(mods)
    else:
        mods = {"cli": importlib.import_module("entkit.cli")}
        tracer = None

    t_main = clock()
    rc = None
    try:
        rc = mods["cli"].main(argv)
    finally:
        t_end = clock()
        info = dict(run_id=run_id, rc=rc, t_main=t_main, t_main_end=t_end,
                    t_last_load_end=last_load_end[0], peak_rss_mb=peak_rss_mb())
        if tracer is not None:
            spans_path = info_path + ".spans"
            info.update(spans=spans_path, span_count=tracer.dump(spans_path),
                        names=tracer.names, counters=tracer.summary())
        with open(info_path, "w", encoding="utf-8") as fh:
            json.dump(info, fh)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
