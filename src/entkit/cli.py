"""Command-line front end.

Commands compose through files: TSV and JSON-lines in, TSV and JSON-lines
out, byte-identical across runs and thread counts for fixed inputs. Exit
codes: 0 success, 1 usage error, 2 data error, 3 endpoint error.

Each command imports the modules it uses when it runs, so ``resolve`` never
imports numpy and the cloze commands never import the linker. ``eval-lama``
imports the alignment only with ``--ent-space`` and the Wikidata client only
with ``--resolutions``.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

from .errors import DataError, TransportError
from .text_input import InputMode

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ENDPOINT = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; the contract here wants
    # usage errors on 1 and data errors on 2, so parse errors are re-raised.
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="entkit", description=__doc__)
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress to stderr (-vv for debug)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("align",
                       help="fit the word-to-wordpiece least-squares map")
    p.add_argument("--src", required=True, help="word-and-entity space (word2vec text)")
    p.add_argument("--tgt", required=True, help="wordpiece space (word2vec text)")
    p.add_argument("--out", required=True, help="alignment file to write")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("eval-lama",
                       help="rank cloze questions and report hits@k per relation")
    p.add_argument("--data", required=True, help="directory of <relation>.jsonl files")
    p.add_argument("--templates", required=True, help="templates JSON file")
    p.add_argument("--wp-space", required=True)
    p.add_argument("--ent-space", help="word-and-entity space (needs --align)")
    p.add_argument("--align", help="alignment file from 'entkit align'")
    p.add_argument("--mode", choices=[m.value for m in InputMode], default="bert")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--answer-vocab",
                   help="file with one answer symbol per line; defaults to all "
                        "non-special, non-continuation wordpieces")
    p.add_argument("--resolutions",
                   help="resolution TSV (surface, qid, url) for subject entities")
    p.add_argument("--stage", default="0", help="stage label echoed in the report")
    p.add_argument("--out", help="report TSV path (default stdout)")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; cloze scoring runs "
                        "in batches, so it has no effect")
    p.set_defaults(func=cmd_eval_lama)

    p = sub.add_parser("filter-uhn",
                       help="delete questions answerable from the subject name alone")
    p.add_argument("--data", required=True, help="directory of <relation>.jsonl files")
    p.add_argument("--templates", required=True)
    p.add_argument("--out-dir", required=True,
                   help="writes stage0/ stage1/ stage2/ datasets and stats.tsv")
    p.add_argument("--wp-space", required=True)
    p.add_argument("--answer-vocab")
    p.add_argument("--top-k", type=int, default=3,
                   help="probe depth for the name heuristic; 0 disables it")
    p.add_argument("--case-insensitive-match", action="store_true",
                   help="match probe answers case-insensitively")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; cloze scoring runs "
                        "in batches, so it has no effect")
    p.set_defaults(func=cmd_filter_uhn)

    p = sub.add_parser("link",
                       help="link entity mentions in pre-tokenized documents")
    p.add_argument("--docs", required=True, help="documents JSON-lines file")
    p.add_argument("--table", required=True, help="candidate TSV (surface, entity, prior)")
    p.add_argument("--redirects", help="redirect TSV (from, to)")
    p.add_argument("--wp-space", required=True)
    p.add_argument("--ent-space", required=True)
    p.add_argument("--align", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--train", action="store_true",
                      help="train the head and null-entity parameters first")
    mode.add_argument("--eval", action="store_true", help="decode and score only")
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--eps-bias", type=float, default=0.0,
                   help="initial null-entity bias (strongly negative "
                        "suppresses the no-entity option)")
    p.add_argument("--head", choices=["identity", "zero"], default="identity",
                   help="head initialization")
    p.add_argument("--max-span", type=int, default=7)
    p.add_argument("--standard-mask", action="store_true",
                   help="use a plain mask instead of the candidate-mean mask")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; linking rescores "
                        "in batches, so it has no effect")
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("resolve",
                       help="resolve surface forms to Wikidata ids and Wikipedia URLs")
    p.add_argument("--surfaces", required=True, help="file with one surface per line")
    endpoint = p.add_mutually_exclusive_group()
    endpoint.add_argument("--endpoint",
                          help="SPARQL endpoint URL (default: "
                               "$ENTKIT_WIKIDATA_ENDPOINT or the public endpoint)")
    endpoint.add_argument("--fixture", help="canned-response JSON file (offline)")
    p.add_argument("--cache", help="resumable resolution cache TSV")
    p.add_argument("--out", help="result TSV path (default stdout)")
    p.add_argument("--rate", type=float, default=5.0, help="max requests per second")
    p.set_defaults(func=cmd_resolve)

    return parser


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "".join(line + "\n" for line in lines)
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_align(args) -> int:
    from . import alignment, embeddings

    tgt = embeddings.load_space(args.tgt, embeddings.SpaceKind.WORDPIECE)
    # Only a word that is also a wordpiece can be paired.
    src = embeddings.load_space(
        args.src, embeddings.SpaceKind.WORD_AND_ENTITY, keep=tgt.vocab.index
    )
    pairs = embeddings.shared_vocabulary(tgt, src)
    amap = alignment.fit_alignment(src, tgt, pairs)
    alignment.save_alignment(amap, args.out)
    _write_lines(None, [
        f"shared_count\t{amap.shared_count}",
        f"residual\t{amap.residual!r}",
        f"rank_deficient\t{str(amap.rank_deficient).lower()}",
    ])
    return EXIT_OK


def _load_answer_vocab(path: str | None, wp):
    from . import embeddings

    if path:
        with open(path, encoding="utf-8") as fh:
            symbols = [line.strip() for line in fh if line.strip()]
        missing = [s for s in symbols if s not in wp.vocab]
        if missing:
            raise DataError(f"answer symbols missing from wordpiece space: {missing[:5]}")
    else:
        symbols = [
            s for s in wp.vocab.symbols
            if not (s.startswith("[") and s.endswith("]")) and not s.startswith("##")
        ]
    if not symbols:
        raise DataError(f"{path or 'wordpiece space'}: no usable answer symbols")
    return embeddings.Vocabulary(symbols)


def _load_entity_side(wp, ent_path, align_path, keep, absent=None):
    """Load the rows of the word-and-entity space whose symbol is in
    ``keep`` and the alignment, and check that they fit the wordpiece space;
    returns ``(wiki, amap)``. The caller derives the entities it references.
    ``absent`` is passed on to ``load_space``."""
    from . import alignment, embeddings

    wiki = embeddings.load_space(
        ent_path, embeddings.SpaceKind.WORD_AND_ENTITY, keep, absent
    )
    amap = alignment.load_alignment(align_path)
    alignment.check_entity_source(amap, wiki)
    if amap.d_tgt != wp.dim:
        raise DataError(
            f"aligned entity dimension {amap.d_tgt} does not match "
            f"wordpiece dimension {wp.dim}"
        )
    return wiki, amap


def _load_templates(path, dataset):
    """The templates of ``path``; every relation of ``dataset`` needs one."""
    from . import lama_bench

    templates = lama_bench.load_templates(path)
    lama_bench.require_templates(dataset, templates)
    return templates


def cmd_eval_lama(args) -> int:
    from . import embeddings, lama_bench
    from .scorer import ReferenceScorer

    if args.k < 1:
        raise UsageError(f"entkit eval-lama: --k must be at least 1, got {args.k}")
    mode = InputMode(args.mode)
    if args.ent_space is not None and args.align is None:
        raise UsageError("--ent-space requires --align")
    if mode is not InputMode.BERT and args.ent_space is None:
        raise UsageError(f"--mode {mode.value} requires --ent-space and --align")
    wp = embeddings.load_space(args.wp_space, embeddings.SpaceKind.WORDPIECE)
    answer_vocab = _load_answer_vocab(args.answer_vocab, wp)

    dataset, _rejected = lama_bench.load_lama_dir(args.data, answer_vocab)
    templates = _load_templates(args.templates, dataset)
    if args.resolutions:
        from . import wikidata_client

        mapping = wikidata_client.load_resolution_map(args.resolutions)
        dataset = lama_bench.resolve_subjects(dataset, mapping)

    ent = None
    if args.ent_space is not None:
        from . import alignment

        # A resolved subject missing from the space falls back to wordpieces.
        subjects = {t.sub_entity for ts in dataset.values() for t in ts}
        wiki, amap = _load_entity_side(wp, args.ent_space, args.align, subjects)
        ent = alignment.derive_entity_space(amap, wiki, wiki.vocab.symbols)
        del wiki  # only the derived rows are needed
    scorer = ReferenceScorer(wp, ent)
    by_relation = {}
    for rel in sorted(dataset):
        triples = dataset[rel]
        if not triples:
            continue
        seqs = [
            lama_bench.render_question(t, templates[rel], mode, ent, wp.vocab)
            for t in triples
        ]
        # Only the top k of each ranking is kept: hits@k reads no further.
        rankings = lama_bench.rank_answers(seqs, scorer, answer_vocab, args.k)
        by_relation[rel] = [
            (ranking, t.obj_surface) for ranking, t in zip(rankings, triples)
        ]
    if not by_relation:
        raise DataError(f"{args.data}: no questions to score")

    report = lama_bench.hits_at_k(by_relation, args.k)
    lines = [f"relation\tstage\thits@{args.k}\tquestions"]
    for rel in sorted(report.per_relation):
        lines.append(
            f"{rel}\t{args.stage}\t{report.per_relation[rel]:.6f}\t{report.counts[rel]}"
        )
    total = sum(report.counts.values())
    lines.append(f"ALL\t{args.stage}\t{report.overall:.6f}\t{total}")
    _write_lines(args.out, lines)
    return EXIT_OK


def _write_dataset(dataset, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for rel in sorted(dataset):
        with open(out_dir / f"{rel}.jsonl", "w", encoding="utf-8") as fh:
            for t in dataset[rel]:
                fh.write(json.dumps(
                    {"sub_label": t.sub_surface, "obj_label": t.obj_surface},
                    sort_keys=True, ensure_ascii=False,
                ) + "\n")


def cmd_filter_uhn(args) -> int:
    from . import embeddings, lama_bench
    from .scorer import ReferenceScorer

    if args.top_k < 0:
        raise UsageError(f"entkit filter-uhn: --top-k must be at least 0, got {args.top_k}")
    wp = embeddings.load_space(args.wp_space, embeddings.SpaceKind.WORDPIECE)
    answer_vocab = _load_answer_vocab(args.answer_vocab, wp)
    dataset, _rejected = lama_bench.load_lama_dir(args.data, answer_vocab)
    templates = _load_templates(args.templates, dataset)
    scorer = ReferenceScorer(wp)

    result = lama_bench.build_lama_uhn(
        dataset, templates, scorer, answer_vocab,
        top_k=args.top_k,
        case_insensitive=args.case_insensitive_match,
    )
    out = Path(args.out_dir)
    _write_dataset(dataset, out / "stage0")
    _write_dataset(result.stage1, out / "stage1")
    _write_dataset(result.stage2, out / "stage2")
    lines = ["relation\tstage\tquestions"]
    for rel in sorted(result.stats):
        for stage, count in enumerate(result.stats[rel]):
            lines.append(f"{rel}\t{stage}\t{count}")
    _write_lines(out / "stats.tsv", lines)
    _write_lines(None, lines)
    return EXIT_OK


def cmd_link(args) -> int:
    from . import alignment, embeddings, entity_linking
    from .scorer import AffineHead, ReferenceScorer

    for flag, value in (("--iterations", args.iterations), ("--max-span", args.max_span)):
        if value < 1:
            raise UsageError(f"entkit link: {flag} must be at least 1, got {value}")
    if args.epochs < 0:
        raise UsageError(f"entkit link: --epochs must be at least 0, got {args.epochs}")
    for flag, value in (("--step", args.step), ("--eps-bias", args.eps_bias)):
        if not math.isfinite(value):
            raise UsageError(f"entkit link: {flag} must be finite, got {value}")
    wp = embeddings.load_space(args.wp_space, embeddings.SpaceKind.WORDPIECE)
    docs = entity_linking.load_documents(args.docs)
    # The table holds candidates only for the surfaces the documents' spans
    # can take, and the entities of all its rows.
    table = entity_linking.load_candidate_table(
        args.table, args.max_span, [doc.tokens for doc in docs]
    )
    doc_spans = [
        entity_linking.generate_candidates(doc.tokens, table.spans, args.max_span)
        for doc in docs
    ]
    # Training and decoding read these spans and embed only their candidates;
    # the load strikes every symbol the space holds from the table's entities.
    reached = {c.entity for spans in doc_spans for span in spans for c in span.candidates}
    wiki, amap = _load_entity_side(wp, args.ent_space, args.align, reached, table.entities)
    if absent := table.entities.remaining():
        raise DataError(f"candidate entities missing from entity space: {absent[:5]}")
    del table  # the spans hold every candidate the run can reach
    ent = alignment.derive_entity_space(amap, wiki, reached)
    del wiki  # only the derived rows are needed
    redirects = (
        entity_linking.load_redirects(args.redirects) if args.redirects else {}
    )

    head = (
        AffineHead.identity(wp.dim) if args.head == "identity"
        else AffineHead.zeros(wp.dim)
    )
    eps = entity_linking.NullEntityParams.zeros(wp.dim, args.eps_bias)
    scorer = ReferenceScorer(wp, ent)
    use_emask = not args.standard_mask
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if args.train:
        examples: list = []
        dropped = 0
        for doc, spans in zip(docs, doc_spans):
            ex, nd = entity_linking.build_training_examples(doc, spans)
            examples.extend(ex)
            dropped += nd
        if not examples:
            raise DataError(f"{args.docs}: no candidate spans to train on")
        losses = entity_linking.train_linker(
            examples, head, eps, scorer,
            epochs=args.epochs, step=args.step, use_emask=use_emask,
        )
        lines = ["epoch\tloss"]
        lines += [f"{i}\t{loss:.6f}" for i, loss in enumerate(losses)]
        lines.append(f"# dropped_unreachable_golds\t{dropped}")
        _write_lines(out / "losses.tsv", lines)

    _, steps = entity_linking.iterative_refine(
        [(doc.tokens, spans) for doc, spans in zip(docs, doc_spans)], scorer, head, eps,
        iterations=args.iterations, use_emask=use_emask,
    )
    steps_of = [[] for _ in docs]
    for step in steps:
        steps_of[step.doc].append(step)
    pred_lines: list[str] = []
    iter_lines = ["doc_id\titeration\tselectable\tquota\tdecoded"]
    predictions = []
    golds = []
    for doc, spans, doc_steps in zip(docs, doc_spans, steps_of):
        decoded = sorted(
            (s.start, s.end, s.entity)
            for s in spans if s.state is entity_linking.SpanState.DECODED
        )
        predictions.append(decoded)
        golds.append([(g.start, g.end, g.entity) for g in doc.golds])
        pred_lines.append(json.dumps(
            {
                "doc_id": doc.doc_id,
                "predictions": [
                    {"start": s, "end": e, "entity": ent_id}
                    for s, e, ent_id in decoded
                ],
            },
            sort_keys=True, ensure_ascii=False,
        ))
        for step in doc_steps:
            iter_lines.append(
                f"{doc.doc_id}\t{step.iteration}\t{step.selectable}"
                f"\t{step.quota}\t{len(step.decoded)}"
            )

    scores = entity_linking.strong_match_f1(predictions, golds, redirects)
    report = ["scope\tprecision\trecall\tf1"]
    for scope, prf in (("micro", scores.micro), ("macro", scores.macro)):
        report.append(
            f"{scope}\t{prf.precision:.6f}\t{prf.recall:.6f}\t{prf.f1:.6f}"
        )
    _write_lines(out / "predictions.jsonl", pred_lines)
    _write_lines(out / "iterations.tsv", iter_lines)
    _write_lines(out / "report.tsv", report)
    _write_lines(None, report)
    return EXIT_OK


def cmd_resolve(args) -> int:
    import os

    from . import wikidata_client

    if not (0.0 < args.rate < math.inf):
        raise UsageError(f"entkit resolve: --rate must be positive and finite, got {args.rate}")
    with open(args.surfaces, encoding="utf-8") as fh:
        surfaces = [line.strip() for line in fh]
    for lineno, surface in enumerate(surfaces, start=1):
        if "\t" in surface:  # the cache and the result TSV are tab-separated
            raise DataError(f"{args.surfaces}: line {lineno}: surface holds a tab")
    surfaces = [s for s in surfaces if s]
    if args.fixture:
        transport = wikidata_client.FixtureTransport.from_json(args.fixture)
    else:
        endpoint = (
            args.endpoint
            or os.environ.get("ENTKIT_WIKIDATA_ENDPOINT")
            or wikidata_client.DEFAULT_ENDPOINT
        )
        transport = wikidata_client.HttpTransport(endpoint, rate_per_sec=args.rate)
    results = wikidata_client.resolve_batch(surfaces, transport, args.cache)
    lines = ["surface\tqid\turl\tstatus"]
    lines += [
        f"{r.surface}\t{r.qid or ''}\t{r.wikipedia_url or ''}\t{r.status.value}"
        for r in results
    ]
    _write_lines(args.out, lines)
    failed = any(
        r.status is wikidata_client.ResolutionStatus.ENDPOINT_ERROR for r in results
    )
    return EXIT_ENDPOINT if failed else EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        level = logging.WARNING - 10 * min(args.verbose, 2)
        logging.basicConfig(level=level, stream=sys.stderr, format="%(message)s")
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except (DataError, UnicodeDecodeError, OSError) as exc:
        print(f"entkit: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TransportError as exc:
        print(f"entkit: endpoint error: {exc}", file=sys.stderr)
        return EXIT_ENDPOINT


if __name__ == "__main__":
    sys.exit(main())
