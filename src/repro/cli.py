"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library workflow:

- ``generate``   build a synthetic world and save it (CSV database +
                 ground-truth JSON);
- ``stats``      summarize a saved database;
- ``fit``        train the per-path weight models and save them as JSON;
- ``resolve``    cluster the references of one name using saved models
                 (optionally scored/visualized against saved ground truth);
- ``experiment`` run the Table-2 evaluation (and optionally the Fig-4
                 variant comparison) over the ambiguous names;
- ``ingest``     apply a delta batch of new tuples and re-resolve the
                 ambiguous names incrementally (byte-identical to a cold
                 refit in ``--mode exact``; approximate single-reference
                 assignment in ``--mode greedy``);
- ``report``     summarize a saved trace (hot spans, phase timeline) and
                 export it to standard formats (OpenMetrics text, Chrome
                 trace-event JSON).

Example session::

    python -m repro generate --out /tmp/world
    python -m repro fit --db /tmp/world --out /tmp/world/models
    python -m repro resolve --db /tmp/world --models /tmp/world/models \
        --name "Wei Wang" --truth /tmp/world/truth.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.config import DistinctConfig
from repro.core.distinct import Distinct
from repro.core.variants import FIG4_VARIANTS, variant_by_key
from repro.data.ambiguity import TABLE1_SPEC
from repro.data.generator import GeneratorConfig, generate_world
from repro.data.world import (
    load_ground_truth,
    save_ground_truth,
    world_to_database,
)
from repro.eval.experiment import run_experiment
from repro.eval.reporting import format_table
from repro.eval.runner import experiment_checkpoint, run_resilient
from repro.eval.visualize import render_clusters_text
from repro.ingest.runner import INGEST_MODES, ingest_checkpoint, ingest_resilient
from repro.ml.model import PathWeightModel
from repro.obs import (
    disable_tracing,
    enable_tracing,
    get_logger,
    get_metrics,
    setup_logging,
    span,
)
from repro.obs.export import write_trace
from repro.perf import DEFAULT_TASK_RETRIES
from repro.reldb.csvio import load_database, save_database
from repro.reldb.delta import load_delta
from repro.resilience import Deadline, ErrorCollector, Policy

#: Exit code when a run stops at its ``--deadline`` (resumable via --resume).
EXIT_DEADLINE = 3

TRUTH_FILE = "truth.json"
AMBIGUOUS_FILE = "ambiguous_names.json"

log = get_logger("cli")


def _obs_options() -> argparse.ArgumentParser:
    """The observability flags, accepted before *or* after the subcommand.

    Defaults are SUPPRESS so a flag parsed at the top level is not
    clobbered by the subparser's default; ``main`` reads them via
    ``getattr`` with the real fallbacks.
    """
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("observability")
    group.add_argument(
        "--log-level",
        default=argparse.SUPPRESS,
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        help="log verbosity for the repro logger tree (default: WARNING)",
    )
    group.add_argument(
        "--json-logs",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit logs as JSON lines instead of human-readable text",
    )
    group.add_argument(
        "--trace-out",
        default=argparse.SUPPRESS,
        metavar="PATH",
        help="enable tracing and write the span tree + metrics JSON here",
    )
    group.add_argument(
        "--sample-resources",
        nargs="?",
        type=float,
        const=0.05,
        default=argparse.SUPPRESS,
        metavar="SECONDS",
        help="sample RSS/CPU/GC into gauges while the command runs "
             "(optional interval, default 0.05s); with --trace-out, open "
             "spans are annotated with their peak RSS",
    )
    return common


def _add_resilience_options(p: argparse.ArgumentParser) -> None:
    """Flags shared by the long-running, checkpointable commands."""
    group = p.add_argument_group("resilience")
    group.add_argument(
        "--on-error",
        choices=tuple(policy.value for policy in Policy),
        default="raise",
        help="per-item error policy: raise (default), skip, or collect "
             "(skip + report every failed item at the end)",
    )
    group.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="checkpoint file: progress is written here after every item, "
             "and an existing compatible checkpoint is resumed from",
    )
    group.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop gracefully after this wall-clock budget "
             f"(exit code {EXIT_DEADLINE}; combine with --resume to continue later)",
    )


def _add_perf_options(p: argparse.ArgumentParser) -> None:
    """Flags for the process pool of the per-name loop."""
    group = p.add_argument_group("performance")
    group.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="process-pool size for the per-name loop (default 1 = "
             "in-process; results are identical for any N)",
    )
    group.add_argument(
        "--task-retries",
        type=int,
        default=DEFAULT_TASK_RETRIES,
        metavar="K",
        help="re-dispatch budget per task when a pool worker dies "
             f"(default {DEFAULT_TASK_RETRIES}); past the budget the task "
             "fails as WorkerCrashed under the --on-error policy",
    )


def build_parser() -> argparse.ArgumentParser:
    common = _obs_options()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DISTINCT: distinguishing objects with identical names",
        parents=[common],
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    class _Sub:
        """add_parser shim attaching the shared observability options."""

        @staticmethod
        def add_parser(name: str, **kwargs):
            return subparsers.add_parser(name, parents=[common], **kwargs)

    sub = _Sub()

    p = sub.add_parser("generate", help="generate a synthetic world")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument(
        "--delta-papers",
        type=int,
        default=0,
        metavar="N",
        help="also grow the world by N localized papers and save them as "
             "delta.json next to the (pre-delta) database, for "
             "`repro ingest` (truth.json covers the post-delta world)",
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("stats", help="summarize a saved database")
    p.add_argument("--db", required=True, help="database directory")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("fit", help="train the per-path weight models")
    p.add_argument("--db", required=True)
    p.add_argument("--out", required=True, help="model output directory")
    p.add_argument("--positive", type=int, default=1000)
    p.add_argument("--negative", type=int, default=1000)
    p.add_argument("--svm-c", type=float, default=None,
                   help="fixed SVM cost (default: cross-validated search)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("resolve", help="cluster the references of one name")
    p.add_argument("--db", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--min-sim", type=float, default=None)
    p.add_argument("--truth", default=None, help="ground-truth JSON to score against")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser(
        "explain", help="decompose the similarity of one reference pair"
    )
    p.add_argument("--db", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--rows", required=True, help="two reference row ids, comma-separated")
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("candidates", help="scan for likely ambiguous names")
    p.add_argument("--db", required=True)
    p.add_argument("--min-refs", type=int, default=5)
    p.add_argument("--min-score", type=float, default=0.3)
    p.add_argument("--limit", type=int, default=20)
    p.set_defaults(func=cmd_candidates)

    p = sub.add_parser(
        "calibrate", help="pick min-sim from synthetic ambiguity (no labels)"
    )
    p.add_argument("--db", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--names", type=int, default=15, help="synthetic names to build")
    p.add_argument("--members", type=int, default=2, help="rare names pooled per synthetic name")
    p.add_argument("--seed", type=int, default=0)
    _add_resilience_options(p)
    _add_perf_options(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser(
        "lint", help="run the project static-analysis rules (repro.analysis)"
    )
    p.add_argument(
        "--root",
        default=None,
        help="repository root to lint (default: auto-detected from the "
             "installed package: <root>/src/repro)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="lint_format",
        help="findings output format (default: text)",
    )
    p.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    p.add_argument(
        "--min-severity",
        choices=("info", "warning", "error"),
        default="info",
        help="hide findings below this severity (exit code always "
             "reflects error-severity findings)",
    )
    p.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="also write the full JSON report here (CI artifact)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "report",
        help="summarize/export a saved trace",
    )
    p.add_argument(
        "--trace",
        required=True,
        metavar="PATH",
        help="trace JSON written by --trace-out: print the hot-span table "
             "and phase timeline",
    )
    p.add_argument(
        "--top",
        type=int,
        default=10,
        help="hot-span table size (default 10)",
    )
    p.add_argument(
        "--chrome-out",
        default=None,
        metavar="PATH",
        help="also write the trace as Chrome trace-event JSON "
             "(chrome://tracing, Perfetto)",
    )
    p.add_argument(
        "--openmetrics-out",
        default=None,
        metavar="PATH",
        help="also write the trace's metrics snapshot as OpenMetrics text",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("experiment", help="evaluate over the ambiguous names")
    p.add_argument("--db", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--names", default=None,
                   help="comma-separated names (default: saved ambiguous names)")
    p.add_argument("--variants", choices=("distinct", "all"), default="distinct")
    p.add_argument("--min-sim", type=float, default=None)
    _add_resilience_options(p)
    _add_perf_options(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "ingest",
        help="apply a delta batch and re-resolve the ambiguous names "
             "incrementally",
    )
    p.add_argument("--db", required=True, help="pre-delta database directory")
    p.add_argument("--models", required=True)
    p.add_argument("--truth", required=True,
                   help="post-delta ground-truth JSON to score against")
    p.add_argument("--delta", required=True,
                   help="delta JSON written by repro.reldb.save_delta")
    p.add_argument("--names", default=None,
                   help="comma-separated names (default: saved ambiguous names)")
    p.add_argument(
        "--mode",
        choices=INGEST_MODES,
        default="exact",
        help="exact (default) walks the invalidation ladder and matches a "
             "cold refit byte-for-byte; greedy assigns each new reference "
             "to the most similar existing cluster without revisiting merges",
    )
    p.add_argument("--min-sim", type=float, default=None)
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write the scored results + ingest stats JSON here")
    _add_resilience_options(p)
    _add_perf_options(p)
    p.set_defaults(func=cmd_ingest)

    return parser


# -- commands -----------------------------------------------------------------


def cmd_generate(args) -> int:
    out = Path(args.out)
    world = generate_world(GeneratorConfig(seed=args.seed, scale=args.scale))
    delta = None
    if args.delta_papers:
        from repro.data.deltas import grow_world, split_world

        grown = grow_world(world, args.delta_papers, seed=args.seed)
        split = split_world(grown, args.delta_papers, prepared=False)
        db, truth, delta = split.base, split.truth, split.delta
    else:
        db, truth = world_to_database(world, prepared=False)
    save_database(db, out)
    if delta is not None:
        from repro.reldb.delta import save_delta

        save_delta(delta, out / "delta.json")
    save_ground_truth(truth, out / TRUTH_FILE)
    (out / AMBIGUOUS_FILE).write_text(json.dumps(world.ambiguous_names))
    stats = world.stats()
    print(f"world written to {out}")
    print(
        f"  {stats['papers']} papers, {stats['authorships']} authorship rows, "
        f"{stats['distinct_names']} distinct names, "
        f"{len(world.ambiguous_names)} ambiguous names"
    )
    return 0


def _open_database(directory: str):
    from repro.data.dblp_schema import prepare_dblp_database

    db = load_database(directory)
    return prepare_dblp_database(db)


def cmd_stats(args) -> int:
    from repro.reldb.stats import format_stats

    db = _open_database(args.db)
    print(db.summary())
    print()
    print(format_stats(db))
    truth_path = Path(args.db) / TRUTH_FILE
    if truth_path.exists():
        truth = load_ground_truth(truth_path)
        ambiguous = _ambiguous_names(args.db, None)
        rows = [
            [name, len(truth.clusters_for(name)), len(truth.rows_of_name[name])]
            for name in ambiguous
        ]
        print()
        print(format_table(["name", "#entities", "#refs"], rows,
                           title="ambiguous names"))
    return 0


def cmd_fit(args) -> int:
    db = _open_database(args.db)
    config = DistinctConfig(
        n_positive=args.positive, n_negative=args.negative, svm_C=args.svm_c
    )
    distinct = Distinct(config).fit(db)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    distinct.resem_model_.save(out / "resem_model.json")
    distinct.walk_model_.save(out / "walk_model.json")
    report = distinct.fit_report_
    (out / "fit_report.json").write_text(
        json.dumps(
            {
                "n_paths": report.n_paths,
                "n_training_pairs": report.n_training_pairs,
                "n_rare_names": report.n_rare_names,
                "train_accuracy_resem": report.train_accuracy_resem,
                "train_accuracy_walk": report.train_accuracy_walk,
                "seconds_total": report.seconds_total,
            },
            indent=2,
        )
    )
    print(
        f"models written to {out} "
        f"({report.n_paths} paths, train acc resem "
        f"{report.train_accuracy_resem:.3f} / walk "
        f"{report.train_accuracy_walk:.3f}, {report.seconds_total:.1f}s)"
    )
    return 0


def _load_pipeline(
    db_dir: str,
    model_dir: str,
    min_sim: float | None,
) -> Distinct:
    db = _open_database(db_dir)
    models = Path(model_dir)
    config = DistinctConfig()
    if min_sim is not None:
        config = config.with_options(min_sim=min_sim)
    return Distinct.from_models(
        db,
        PathWeightModel.load(models / "resem_model.json"),
        PathWeightModel.load(models / "walk_model.json"),
        config,
    )


def cmd_resolve(args) -> int:
    distinct = _load_pipeline(args.db, args.models, args.min_sim)
    resolution = distinct.resolve(args.name)
    print(
        f"{args.name!r}: {len(resolution.rows)} references -> "
        f"{resolution.n_clusters} objects"
    )
    if args.truth:
        truth = load_ground_truth(args.truth)
        print()
        print(render_clusters_text(resolution, truth))
    else:
        for idx, cluster in enumerate(resolution.clusters):
            print(f"  object {idx}: reference rows {sorted(cluster)}")
    return 0


def cmd_explain(args) -> int:
    from repro.core.explain import explain_pair

    distinct = _load_pipeline(args.db, args.models, None)
    parts = [p.strip() for p in args.rows.split(",") if p.strip()]
    if len(parts) != 2:
        print("--rows needs exactly two row ids, e.g. --rows 17,42")
        return 2
    explanation = explain_pair(distinct, args.name, int(parts[0]), int(parts[1]))
    print(explanation.render(k=args.top))
    return 0


def cmd_candidates(args) -> int:
    from repro.core.candidates import find_ambiguous_candidates

    db = _open_database(args.db)
    candidates = find_ambiguous_candidates(
        db, min_refs=args.min_refs, min_score=args.min_score, limit=args.limit
    )
    if not candidates:
        print("no candidate ambiguous names found")
        return 0
    rows = [
        [c.name, c.n_refs, c.n_components, c.score] for c in candidates
    ]
    print(format_table(
        ["name", "#refs", "#context components", "score"],
        rows,
        title="candidate ambiguous names (structural scan)",
        float_format="{:.2f}",
    ))
    return 0


def _resilience_kwargs(args, make_checkpoint) -> tuple[dict, ErrorCollector]:
    """Shared --on-error/--resume/--deadline plumbing for long commands."""
    collector = ErrorCollector()
    kwargs = {
        "policy": Policy.coerce(args.on_error),
        "collector": collector,
        "checkpoint": make_checkpoint(args.resume) if args.resume else None,
        "deadline": Deadline.after(args.deadline) if args.deadline else None,
    }
    return kwargs, collector


def _report_degradation(collector: ErrorCollector, interrupted: bool,
                        resume_path: str | None) -> int:
    """Print the error report / resume hint; the command's exit code."""
    if collector:
        print()
        print(collector.summary())
    if interrupted:
        print()
        hint = (
            f"re-run with --resume {resume_path} to continue"
            if resume_path
            else "re-run with --resume PATH to make interruptions resumable"
        )
        print(f"deadline exceeded before all work completed; {hint}")
        return EXIT_DEADLINE
    return 0


def cmd_calibrate(args) -> int:
    from repro.eval.calibration import (
        DEFAULT_GRID,
        calibrate_min_sim,
        calibration_checkpoint,
    )

    distinct = _load_pipeline(args.db, args.models, None)
    kwargs, collector = _resilience_kwargs(
        args,
        lambda path: calibration_checkpoint(
            path, grid=DEFAULT_GRID, n_names=args.names,
            members=args.members, seed=args.seed,
        ),
    )
    result = calibrate_min_sim(
        distinct, n_names=args.names, members=args.members, seed=args.seed,
        workers=args.workers,
        task_retries=args.task_retries,
        **kwargs,
    )
    rows = [
        [min_sim, f1] for min_sim, f1 in sorted(result.f1_by_min_sim.items())
    ]
    print(format_table(
        ["min-sim", "f1 on synthetic ambiguity"],
        rows,
        title=(
            f"calibration over {result.n_synthetic_names} synthetic names "
            f"({result.members_per_name} rare names pooled each)"
        ),
        float_format="{:.4f}",
    ))
    if result.n_scored < result.n_synthetic_names:
        print(
            f"\n(scored {result.n_scored} of {result.n_synthetic_names} "
            f"synthetic names)"
        )
    print(f"\nbest min-sim: {result.best_min_sim}")
    return _report_degradation(collector, result.interrupted, args.resume)


def _default_lint_root() -> Path:
    """The repo root this package was imported from (``<root>/src/repro``)."""
    return Path(__file__).resolve().parents[2]


def cmd_lint(args) -> int:
    from repro.analysis import (
        Severity,
        format_json,
        format_text,
        load_config,
        rule_catalogue,
        run_lint,
    )

    if args.list_rules:
        for entry in rule_catalogue():
            print(
                f"{entry['id']:32s} {entry['default_severity']:8s} "
                f"{entry['description']}"
            )
        return 0
    root = Path(args.root) if args.root else _default_lint_root()
    if not (root / "src" / "repro").is_dir():
        print(f"no src/repro package under {root}; pass --root", file=sys.stderr)
        return 2
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    try:
        result = run_lint(root, config=load_config(root), rules=rules)
    except ValueError as exc:  # unknown rule id, bad pyproject overrides
        print(str(exc), file=sys.stderr)
        return 2
    min_severity = Severity.coerce(args.min_severity)
    if args.lint_format == "json":
        print(format_json(result, min_severity))
    else:
        print(format_text(result, min_severity))
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(format_json(result))
        log.info("lint report written to %s", args.output)
    return 0 if result.ok else 1


def cmd_report(args) -> int:
    from repro.obs import (
        load_trace,
        render_hot_spans,
        render_phase_timeline,
        render_openmetrics,
        write_chrome_trace,
    )

    try:
        payload = load_trace(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot read trace {args.trace}: {exc}", file=sys.stderr)
        return 2
    print(render_hot_spans(payload, top=args.top))
    print()
    print(render_phase_timeline(payload))
    if args.chrome_out:
        path = write_chrome_trace(args.chrome_out, payload)
        print(f"\nchrome trace written to {path}")
    if args.openmetrics_out:
        path = Path(args.openmetrics_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            render_openmetrics(snapshot=payload.get("metrics") or {})
        )
        print(f"openmetrics exposition written to {path}")
    return 0


def _ambiguous_names(db_dir: str, names_arg: str | None) -> list[str]:
    if names_arg:
        return [n.strip() for n in names_arg.split(",") if n.strip()]
    saved = Path(db_dir) / AMBIGUOUS_FILE
    if saved.exists():
        return json.loads(saved.read_text())
    return [spec.name for spec in TABLE1_SPEC]


def cmd_experiment(args) -> int:
    distinct = _load_pipeline(args.db, args.models, args.min_sim)
    truth = load_ground_truth(args.truth)
    names = _ambiguous_names(args.db, args.names)

    min_sim = distinct.config.min_sim
    kwargs, collector = _resilience_kwargs(
        args,
        lambda path: experiment_checkpoint(path, names, "distinct", min_sim),
    )
    outcome = run_resilient(
        distinct,
        truth,
        names,
        variant_by_key("distinct"),
        min_sim,
        workers=args.workers,
        task_retries=args.task_retries,
        **kwargs,
    )
    result = outcome.result
    rows = [
        [r.name, r.n_entities, r.n_refs, r.n_clusters,
         r.scores.precision, r.scores.recall, r.scores.f1]
        for r in result.names
    ]
    rows.append(["average", "", "", "",
                 result.avg_precision, result.avg_recall, result.avg_f1])
    print(format_table(
        ["name", "#entities", "#refs", "#clusters", "precision", "recall", "f1"],
        rows, title="DISTINCT accuracy"))

    if args.variants == "all" and not outcome.interrupted:
        # The Fig-4 comparison re-scores every name per variant; it is not
        # checkpointed (see docs/robustness.md) and only runs on the names
        # that survived the DISTINCT pass.
        scored = [r.name for r in result.names]
        results = run_experiment(distinct, truth, scored, FIG4_VARIANTS)
        labels = {v.key: v.label for v in FIG4_VARIANTS}
        rows = [
            [labels[key], r.min_sim, r.avg_accuracy, r.avg_f1]
            for key, r in results.items()
        ]
        print()
        print(format_table(["variant", "min-sim", "accuracy", "f1"], rows,
                           title="variant comparison", float_format="{:.4f}"))
    return _report_degradation(collector, outcome.interrupted, args.resume)


def cmd_ingest(args) -> int:
    distinct = _load_pipeline(args.db, args.models, args.min_sim)
    truth = load_ground_truth(args.truth)
    names = _ambiguous_names(args.db, args.names)
    delta = load_delta(args.delta)

    min_sim = distinct.config.min_sim
    kwargs, collector = _resilience_kwargs(
        args,
        lambda path: ingest_checkpoint(path, names, delta, min_sim, args.mode),
    )
    outcome = ingest_resilient(
        distinct,
        truth,
        names,
        delta,
        min_sim,
        mode=args.mode,
        workers=args.workers,
        task_retries=args.task_retries,
        **kwargs,
    )
    result = outcome.result
    rows = [
        [r.name, r.n_entities, r.n_refs, r.n_clusters,
         r.scores.precision, r.scores.recall, r.scores.f1]
        for r in result.names
    ]
    if result.names:
        rows.append(["average", "", "", "",
                     result.avg_precision, result.avg_recall, result.avg_f1])
    print(format_table(
        ["name", "#entities", "#refs", "#clusters", "precision", "recall", "f1"],
        rows, title=f"delta ingest ({args.mode}, epoch {outcome.epoch})"))
    stats = outcome.stats
    print(
        f"\n{stats.get('names_refreshed', 0)} name(s) refreshed, "
        f"{stats.get('names_clean', 0)} clean; "
        f"{stats.get('refs_new', 0)} new + {stats.get('refs_dirty', 0)} dirty "
        f"reference(s); {stats.get('pairs_recomputed', 0)} pair(s) recomputed, "
        f"{stats.get('pairs_reused', 0)} reused; "
        f"{stats.get('merges_replayed', 0)} merge(s) replayed"
    )
    if args.output:
        from repro.eval.persistence import name_result_to_dict

        payload = {
            "mode": args.mode,
            "min_sim": min_sim,
            "epoch": outcome.epoch,
            "stats": stats,
            "names": [name_result_to_dict(r) for r in result.names],
            "avg_f1": result.avg_f1 if result.names else None,
        }
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2))
        print(f"results written to {out}")
    return _report_degradation(collector, outcome.interrupted, args.resume)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    setup_logging(
        level=getattr(args, "log_level", "WARNING"),
        json_lines=getattr(args, "json_logs", False),
    )
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        enable_tracing()
    sample_interval = getattr(args, "sample_resources", None)
    sampler = None
    if sample_interval is not None:
        from repro.obs import ResourceSampler

        sampler = ResourceSampler(interval=sample_interval).start()
    try:
        with span(args.command):
            return args.func(args)
    finally:
        if sampler is not None:
            sampler.stop()
        if trace_out:
            path = write_trace(Path(trace_out), metrics=get_metrics())
            disable_tracing()
            log.info("trace written to %s", path)


if __name__ == "__main__":
    sys.exit(main())
