"""Command-line interface: ``python -m repro <command>``.

Four commands cover the everyday workflows:

* ``list-models`` — the Table 1 catalogue with measured shares;
* ``discover`` — run one method on one simulation model and print the
  scenario (rule form, trajectory summary, test metrics);
* ``compare`` — run several methods with repetitions and print a
  Table 3-style comparison;
* ``session`` — the same comparison served from one warm execution
  session (cached pools, resident data plane, memoized metamodel
  fits), printing the warm-cache counters alongside the table.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from repro.core.methods import discover as run_discover
from repro.data import LEVER_MODELS, TABLE1, get_model
from repro.experiments.harness import aggregate, get_test_data, run_batch
from repro.experiments.parallel import GridFailureError, RetryPolicy
from repro.experiments.report import format_table
from repro.experiments.store import open_store
from repro.metrics import precision_recall, trajectory_of
from repro.engines import KNOWN_ENGINES
from repro.subgroup.describe import describe_box, describe_trajectory

__all__ = ["main", "build_parser"]


def _count(text: str) -> int:
    """argparse type of ``--jobs``/``--retries``: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _seconds(text: str) -> float:
    """argparse type of ``--task-timeout``: positive, finite seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds, got {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="REDS scenario discovery (SIGMOD 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-models", help="list the Table 1 simulation models")

    one = sub.add_parser("discover", help="discover scenarios for one model")
    one.add_argument("--function", required=True, help="Table 1 model name")
    one.add_argument("--method", default="RPx", help="method name (Sec. 8.2)")
    one.add_argument("--n", type=int, default=400, help="number of simulations")
    one.add_argument("--seed", type=int, default=0)
    one.add_argument("--n-new", type=int, default=None, help="REDS L override")
    one.add_argument("--no-tune", action="store_true",
                     help="skip metamodel hyperparameter tuning")
    one.add_argument("--test-size", type=int, default=10_000)
    one.add_argument("--engine", choices=KNOWN_ENGINES,
                     default="vectorized",
                     help="kernel engine for every layer of the run "
                          "(reference = slow exact twin)")
    one.add_argument("--jobs", type=_count, default=1,
                     help="worker processes for the run's data-parallel "
                          "stages — REDS pool labeling and metamodel "
                          "tuning folds (0 = all CPUs); results are "
                          "bit-identical at every setting")
    one.add_argument("--retries", type=_count, default=0,
                     help="re-attempt a failed discovery up to this many "
                          "extra times (exponential backoff)")

    many = sub.add_parser("compare", help="compare methods on one model")
    many.add_argument("--function", required=True)
    many.add_argument("--methods", default="P,Pc,RPx",
                      help="comma-separated method names")
    many.add_argument("--n", type=int, default=400)
    many.add_argument("--reps", type=int, default=5)
    many.add_argument("--n-new", type=int, default=20_000)
    many.add_argument("--no-tune", action="store_true")
    many.add_argument("--test-size", type=int, default=10_000)
    many.add_argument("--engine", choices=KNOWN_ENGINES,
                      default="vectorized",
                      help="kernel engine threaded into every grid cell "
                           "(reference = slow exact twin)")
    many.add_argument("--jobs", type=_count, default=1,
                      help="total worker budget for the whole run "
                           "(0 = all CPUs): the planner splits it "
                           "between grid cells and each cell's inner "
                           "fan-out, so N never means NxN processes")
    many.add_argument("--store", metavar="DIR", default=None,
                      help="persistent result store: finished grid cells "
                           "are cached there and re-used on the next run")
    many.add_argument("--retries", type=_count, default=0,
                      help="re-attempt each failed grid cell up to this "
                           "many extra times (exponential backoff, seeded "
                           "jitter); cells that exhaust their budget are "
                           "quarantined and summarised instead of killing "
                           "the grid on first error")
    many.add_argument("--task-timeout", type=_seconds, default=None,
                      metavar="SECONDS",
                      help="per-cell wall-clock limit: a worker whose cell "
                           "outlives it is killed, the pool respawned and "
                           "the cell retried (needs --jobs > 1)")
    cache = many.add_mutually_exclusive_group()
    cache.add_argument("--resume", dest="resume", action="store_true",
                       default=True,
                       help="with --store, load cached records and run only "
                            "the missing cells (the default)")
    cache.add_argument("--no-cache", dest="resume", action="store_false",
                       help="with --store, ignore cached records; recompute "
                            "everything and overwrite the store entries")

    warm = sub.add_parser(
        "session",
        help="compare methods through one warm execution session")
    warm.add_argument("--function", required=True)
    warm.add_argument("--methods", default="P,RPx,RPxp",
                      help="comma-separated method names, served one batch "
                           "per method against shared warm state (methods "
                           "over the same metamodel share one fit)")
    warm.add_argument("--n", type=int, default=400)
    warm.add_argument("--reps", type=int, default=5)
    warm.add_argument("--n-new", type=int, default=20_000)
    warm.add_argument("--no-tune", action="store_true")
    warm.add_argument("--test-size", type=int, default=10_000)
    warm.add_argument("--engine", choices=KNOWN_ENGINES,
                      default="vectorized",
                      help="kernel engine threaded into every request")
    warm.add_argument("--jobs", type=_count, default=1,
                      help="total worker budget for the session "
                           "(0 = all CPUs); pools are cached per "
                           "(workers, lease, plan signature) and reused "
                           "across requests")
    warm.add_argument("--store", metavar="DIR", default=None,
                      help="persistent result store shared by the "
                           "session's requests")
    return parser


def _cmd_list_models() -> int:
    print(f"{'name':<18} {'M':>3} {'I':>3} {'share %':>8}  reference")
    for entry in TABLE1:
        print(f"{entry.name:<18} {entry.dim:>3} {entry.n_relevant:>3} "
              f"{entry.share * 100:>8.1f}  {entry.reference}")
    print("\nmixed numeric+categorical lever models "
          "(categorical columns as K-level codes):")
    print(f"{'name':<18} {'M':>3} {'I':>3} {'cat levels':>12}  reference")
    for name in sorted(LEVER_MODELS):
        model = LEVER_MODELS[name]
        cats = ",".join(f"{j}:{k}" for j, k in model.cat_levels_map.items())
        print(f"{name:<18} {model.dim:>3} {model.n_relevant:>3} "
              f"{cats:>12}  {model.reference}")
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    model = get_model(args.function)
    rng = np.random.default_rng(args.seed)
    from repro.data import make_dataset

    x, y = make_dataset(model, args.n, rng)
    print(f"{args.function}: {args.n} simulations, "
          f"{y.mean():.1%} interesting outcomes")

    policy = RetryPolicy(max_attempts=args.retries + 1)
    attempt = 0
    while True:
        try:
            result = run_discover(
                args.method, x, y,
                seed=args.seed,
                n_new=args.n_new,
                tune_metamodel=not args.no_tune,
                engine=args.engine,
                jobs=args.jobs if args.jobs > 0 else None,
                cat_levels=model.cat_levels_map or None,
            )
            break
        except Exception as exc:
            attempt += 1
            if attempt >= policy.max_attempts:
                raise
            print(f"attempt {attempt} failed ({type(exc).__name__}: {exc}); "
                  f"retrying", file=sys.stderr)
            import time

            time.sleep(policy.delay("cli-discover", attempt))
    x_test, y_test = get_test_data(args.function, size=args.test_size)
    _, auc = trajectory_of(result.boxes, x_test, y_test)
    precision, recall = precision_recall(result.chosen_box, x_test, y_test)

    print(f"\nmethod {args.method} finished in {result.runtime:.1f}s "
          f"(hyperparameters: {result.hyperparams})")
    print(f"test PR AUC {auc:.3f}; chosen box: precision {precision:.3f}, "
          f"recall {recall:.3f}")
    print("\nscenario:")
    print(" ", describe_box(result.chosen_box, domain=model.domain))
    print("\npeeling trajectory (test data):")
    print(describe_trajectory(result.boxes, x_test, y_test))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    store = open_store(args.store)
    try:
        records = run_batch(
            (args.function,), methods, args.n, args.reps,
            n_new=args.n_new,
            tune_metamodel=not args.no_tune,
            test_size=args.test_size,
            jobs=args.jobs if args.jobs > 0 else None,
            store=store,
            resume=args.resume,
            engine=args.engine,
            retries=args.retries,
            task_timeout=args.task_timeout,
        )
    except GridFailureError as exc:
        # Everything that could complete did (and is in the store);
        # report the casualties compactly instead of a raw traceback.
        print(f"error: grid incomplete\n{exc.summary()}", file=sys.stderr)
        if store is not None:
            print(f"store {args.store}: {store.hits} cached, "
                  f"{store.writes} computed; re-run to retry the "
                  f"quarantined cells", file=sys.stderr)
        return 1
    if store is not None:
        print(f"store {args.store}: {store.hits} cached, "
              f"{store.writes} computed")
    aggregated = aggregate(records)
    rows = {method: aggregated[(args.function, method)] for method in methods}
    print(format_table(
        f"{args.function}: N={args.n}, {args.reps} repetitions",
        rows,
        (("pr_auc", "PR AUC %", 100.0),
         ("precision", "precision %", 100.0),
         ("wracc", "WRAcc %", 100.0),
         ("consistency", "consistency %", 100.0),
         ("n_restricted", "# restricted", 1.0),
         ("n_irrelevant", "# irrel", 1.0),
         ("runtime", "runtime s", 1.0)),
        method_order=methods,
    ))
    return 0


def _cmd_session(args: argparse.Namespace) -> int:
    from repro.experiments.session import Session

    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    store = open_store(args.store)
    all_records = []
    with Session(jobs=args.jobs if args.jobs > 0 else None,
                 engine=args.engine, tune=not args.no_tune):
        # One batch per method: within the session the batches share
        # cached pools, resident test/train arrays and memoized
        # metamodel fits — e.g. RPx and RPxp reuse one fitted model.
        for method in methods:
            all_records.extend(run_batch(
                (args.function,), (method,), args.n, args.reps,
                n_new=args.n_new,
                tune_metamodel=not args.no_tune,
                test_size=args.test_size,
                jobs=args.jobs if args.jobs > 0 else None,
                store=store,
                engine=args.engine,
            ))
        from repro.core.reds import fit_stats
        from repro.experiments.dataplane import resident_stats
        from repro.experiments.parallel import pool_stats

        pools = pool_stats()
        plane = resident_stats()
        fits = fit_stats()
    if store is not None:
        print(f"store {args.store}: {store.hits} cached, "
              f"{store.writes} computed")
    aggregated = aggregate(all_records)
    rows = {method: aggregated[(args.function, method)] for method in methods}
    print(format_table(
        f"{args.function}: N={args.n}, {args.reps} repetitions (warm session)",
        rows,
        (("pr_auc", "PR AUC %", 100.0),
         ("precision", "precision %", 100.0),
         ("wracc", "WRAcc %", 100.0),
         ("consistency", "consistency %", 100.0),
         ("n_restricted", "# restricted", 1.0),
         ("n_irrelevant", "# irrel", 1.0),
         ("runtime", "runtime s", 1.0)),
        method_order=methods,
    ))
    print(f"\nwarm session: {fits['fits']} metamodel fit(s), "
          f"{fits['hits']} memo hit(s); "
          f"{pools['spawned']} pool(s) spawned, "
          f"{pools['reused']} checkout(s) served warm; "
          f"{plane['published']} segment(s) published, "
          f"{plane['reused']} republish(es) avoided")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-models":
        return _cmd_list_models()
    if args.command == "discover":
        return _cmd_discover(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "session":
        return _cmd_session(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
