"""Command-line interface: solve instance files with the library's solvers.

Usage (after ``pip install -e .`` / ``python setup.py develop``)::

    python -m repro.cli info
    python -m repro.cli generate-qkp out.qkp --items 50 --density 0.5 --seed 1
    python -m repro.cli solve out.qkp --iterations 150
    python -m repro.cli solve out.qkp --replicas 8 --backend quantized
    python -m repro.cli solve out.qkp --replicas 128 --dtype float32
    python -m repro.cli solve out.qkp --method greedy
    python -m repro.cli solve instance.mkp --method milp
    python -m repro.cli export-qubo out.qkp out.qubo --penalty 25
    python -m repro.cli solve out.qubo
    python -m repro.cli sweep out.qkp --methods saim,greedy,bnb \
        --backends pbit,quantized --replicas 1,8 --workers 4

``export-qubo`` writes the penalized slack-encoded QUBO in qbsolv format,
and ``solve`` accepts ``.qubo`` files back as unconstrained quadratic
instances.

``--method`` (default ``saim``) accepts any registered front-door method
(``repro info`` lists them with one-line descriptions) and always prints
the uniform :class:`repro.core.report.SolveReport` digest; backend knobs
(``--backend`` / ``--replicas``) apply to annealing methods only.  The
spellings of the retired solver-selection flag map onto it as follows:

- ``saim-pt`` has no successor: the ``pt`` backend is gone, and PT-DA
  stays only as the Tables III-IV comparator
  (:func:`repro.ising.parallel_tempering.parallel_tempering`);
- ``parallel-saim`` -> ``--replicas 4``, which no longer divides
  ``--iterations``;
- ``exact`` -> ``--method milp`` for MKP, or ``--method exhaustive`` for
  QKP up to 24 items;
- ``greedy`` / ``ga`` -> ``--method greedy`` / ``--method ga``;
- ``penalty`` -> ``--method penalty``, which anneals at one fixed ``P``
  (the escalation loop :func:`repro.core.penalty.tune_penalty` remains a
  library function).

``sweep`` runs the method × backend × replica grid through the sharded
:func:`repro.solve_many` executor and prints one comparison table.

Formats are auto-detected from the extension (``.qkp`` / ``.mkp``, or
``.json`` for any family with a registered wire codec — e.g. the
Max-3-SAT instances written by ``generate-max3sat``, which solve through
the ``higher_order`` backend); see :mod:`repro.problems.io`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Self-adaptive Ising machine for constrained optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen_qkp = sub.add_parser("generate-qkp", help="write a random QKP instance")
    gen_qkp.add_argument("path", type=Path)
    gen_qkp.add_argument("--items", type=int, default=50)
    gen_qkp.add_argument("--density", type=float, default=0.5)
    gen_qkp.add_argument("--seed", type=int, default=0)

    gen_mkp = sub.add_parser("generate-mkp", help="write a random MKP instance")
    gen_mkp.add_argument("path", type=Path)
    gen_mkp.add_argument("--items", type=int, default=50)
    gen_mkp.add_argument("--knapsacks", type=int, default=5)
    gen_mkp.add_argument("--tightness", type=float, default=0.5)
    gen_mkp.add_argument("--seed", type=int, default=0)

    gen_sat = sub.add_parser(
        "generate-max3sat",
        help="write a random Max-3-SAT instance (JSON wire format)",
    )
    gen_sat.add_argument("path", type=Path)
    gen_sat.add_argument("--variables", type=int, default=30)
    gen_sat.add_argument("--clauses", type=int, default=120)
    gen_sat.add_argument("--seed", type=int, default=0)

    sub.add_parser(
        "info",
        help="list registered solver methods and annealing backends",
    )

    lint = sub.add_parser(
        "lint",
        help="run reprolint, the static contract checker "
             "(python -m repro.devtools.lint); extra arguments pass "
             "through, e.g. `repro lint -- --format json`",
        add_help=False,
    )
    lint.add_argument(
        "lint_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to reprolint (see "
             "`repro lint -- --help`)",
    )

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("path", type=Path)
    solve.add_argument(
        "--method", default="saim",
        help="registered front-door method (see `repro info`; default saim)",
    )
    solve.add_argument(
        "--backend", default=None,
        help="annealing backend for SAIM solvers (see repro.available_backends())",
    )
    solve.add_argument(
        "--replicas", type=int, default=None,
        help="annealing replicas per SAIM iteration, run at the full "
             "--iterations count (default 1)",
    )
    solve.add_argument(
        "--dtype", choices=("float64", "float32"), default=None,
        help="machine coefficient precision (float32 = the big-R fast "
             "scan; annealing methods only, default float64)",
    )
    solve.add_argument(
        "--restart", choices=("random", "warm"), default=None,
        help="annealing restart policy per SAIM iteration: random fresh "
             "spins (paper default) or warm (resume the previous "
             "iteration's spins, solve-resident; annealing methods only)",
    )
    solve.add_argument("--iterations", type=int, default=None,
                       help="SAIM iterations / penalty runs (default 150; "
                            "annealing methods only)")
    solve.add_argument("--mcs", type=int, default=None,
                       help="MCS per run (default 400; annealing methods "
                            "only)")
    solve.add_argument("--seed", type=int, default=0)

    export = sub.add_parser(
        "export-qubo",
        help="encode an instance (slack binaries + squared penalty terms) "
             "and write the resulting QUBO in qbsolv format",
    )
    export.add_argument("path", type=Path)
    export.add_argument("out", type=Path)
    export.add_argument("--penalty", type=float, default=10.0,
                        help="penalty weight P on the squared constraint "
                             "terms (default 10)")

    serve = sub.add_parser(
        "serve",
        help="run the solver-as-a-service daemon: a persistent worker "
             "pool (resident multiplier caches) behind an HTTP/JSON "
             "front end (POST /v1/solve, GET /v1/jobs/<id>, /v1/health, "
             "/v1/stats)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8421,
                       help="bind port; 0 picks an ephemeral port "
                            "(default 8421)")
    serve.add_argument("--workers", type=int, default=2,
                       help="persistent solver workers (default 2)")
    serve.add_argument(
        "--worker-mode", choices=("process", "thread"), default="process",
        help="worker residency: long-lived processes (default; true "
             "parallelism) or in-process threads (zero startup, "
             "GIL-shared)",
    )
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="queue high-water mark; submissions above it "
                            "are rejected with HTTP 429 (default 64)")
    serve.add_argument("--session-max-entries", type=int, default=1024,
                       help="per-worker LRU bound on cached multiplier "
                            "vectors (default 1024)")
    serve.add_argument("--log", default="-", metavar="PATH",
                       help="request log destination: one JSON line per "
                            "request ('-' = stderr, default)")

    sweep = sub.add_parser(
        "sweep",
        help="compare methods x backends x replica counts on one instance "
             "(sharded across --workers processes)",
    )
    sweep.add_argument("path", type=Path)
    sweep.add_argument(
        "--methods", default="saim",
        help="comma-separated method names (see `repro info`); backend-free "
             "methods contribute one row each",
    )
    sweep.add_argument(
        "--backends", default="pbit",
        help="comma-separated backend names (see repro.available_backends())",
    )
    sweep.add_argument(
        "--replicas", default="1",
        help="comma-separated replica counts, e.g. 1,8,32",
    )
    sweep.add_argument(
        "--dtype", choices=("float64", "float32"), default=None,
        help="machine coefficient precision for every annealing grid point",
    )
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the solve_many executor",
    )
    sweep.add_argument(
        "--strategy", choices=("process", "fused", "auto"), default="process",
        help="executor strategy: 'fused' runs the grid as one "
             "in-process fleet (single-cell SAIM/pbit grids only); "
             "'auto' fuses when the grid is shareable and small",
    )
    sweep.add_argument("--iterations", type=int, default=150,
                       help="SAIM iterations per grid point")
    sweep.add_argument("--mcs", type=int, default=400, help="MCS per run")
    sweep.add_argument("--seed", type=int, default=0)
    return parser


def _load_instance(path: Path):
    """Read an instance file; an unreadable one exits with one clean line."""
    import json

    from repro.problems.io import problem_from_json, read_mkp, read_qkp

    suffix = path.suffix.lower()
    try:
        if suffix == ".qkp":
            return read_qkp(path), "qkp"
        if suffix == ".mkp":
            instance, _ = read_mkp(path)
            return instance, "mkp"
        if suffix == ".qubo":
            from repro.core.problem import ConstrainedProblem
            from repro.ising.qubo_io import read_qubo

            model = read_qubo(path)
            # An external QUBO is an unconstrained quadratic minimization;
            # read_qubo already delivers the symmetric zero-diagonal layout
            # ConstrainedProblem requires.
            problem = ConstrainedProblem(
                model.quadratic, model.linear, model.offset, name=path.stem
            )
            return problem, "qubo"
        if suffix == ".json":
            try:
                payload = json.loads(path.read_text())
            except RecursionError as exc:  # nested deeper than the parser goes
                raise ValueError(f"not valid JSON: {exc}") from None
            return problem_from_json(payload), str(payload["kind"])
    # KeyError/TypeError: a known kind with missing or mistyped fields.
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"cannot load {path}: {exc}") from None
    raise SystemExit(
        f"unknown instance format {suffix!r} (use .qkp, .mkp, .qubo, or .json)"
    )


def _describe_instance(instance) -> str:
    for attribute, unit in (("num_items", "items"),
                            ("num_variables", "variables"),
                            ("num_vertices", "vertices")):
        size = getattr(instance, attribute, None)
        if size is not None:
            return f"{size} {unit}"
    return "unknown size"


def _scaled_config(kind: str, iterations: int, mcs: int):
    """The paper's Table I config scaled to the requested CLI budget.

    QKP's recipe (sqrt-decayed, normalized eta) is the generic default for
    every non-MKP family, including the polynomial ones.
    """
    from dataclasses import replace

    from repro.core.saim import SaimConfig

    if kind == "mkp":
        return SaimConfig.mkp_paper().scaled(
            iterations / 5000, mcs / 1000, compensate_eta=True
        )
    config = SaimConfig.qkp_paper().scaled(iterations / 2000, mcs / 1000)
    return replace(config, eta=80.0, eta_decay="sqrt", normalize_step=True)


def _parse_csv(text: str, kind: str, cast):
    values = [item.strip() for item in text.split(",") if item.strip()]
    if not values:
        raise SystemExit(f"--{kind} must list at least one value")
    try:
        return [cast(item) for item in values]
    except ValueError:
        raise SystemExit(f"--{kind} has a malformed entry in {text!r}") from None


def _info() -> int:
    import repro

    print("methods (repro.solve(..., method=...)):")
    for name, description in repro.describe_methods().items():
        spec = repro.method_info(name)
        knobs = "backend, replicas" if spec.uses_backend else "backend-free"
        print(f"  {name:<12} {description}  [{knobs}]")
    print()
    print("backends (annealing methods only; repro.solve(..., backend=...)):")
    for name, description in repro.describe_backends().items():
        print(f"  {name:<12} {description}")
    return 0


def _sweep(args) -> int:
    import repro

    instance, kind = _load_instance(args.path)
    print(f"Loaded {kind.upper()} instance {instance.name!r} "
          f"({_describe_instance(instance)})")

    methods = _parse_csv(args.methods, "methods", str)
    for method in methods:
        if method not in repro.available_methods():
            raise SystemExit(
                f"unknown method {method!r}; choose from "
                f"{', '.join(repro.available_methods())}"
            )
    backends = _parse_csv(args.backends, "backends", str)
    for backend in backends:
        if backend not in repro.available_backends():
            raise SystemExit(
                f"unknown backend {backend!r}; choose from "
                f"{', '.join(repro.available_backends())}"
            )
    replicas = _parse_csv(args.replicas, "replicas", int)
    if any(r < 1 for r in replicas):
        raise SystemExit("--replicas entries must be >= 1")
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    if args.dtype not in (None, "float64") and "penalty" in methods:
        # Mirror the solve path: reject up front instead of rendering a
        # grid of NaN rows (the penalty method runs float64 only).
        raise SystemExit(
            "--dtype float32 does not apply to the penalty method "
            "(float64 reference kernel only); drop it from --methods"
        )
    if args.dtype is not None and not any(
        repro.method_info(method).uses_config for method in methods
    ):
        # Backend-free grids would silently drop the flag otherwise.
        raise SystemExit(
            "--dtype applies to annealing methods only; none of the "
            "requested --methods takes it"
        )

    config = _scaled_config(kind, args.iterations, args.mcs)
    if args.dtype is not None:
        from dataclasses import replace

        config = replace(config, dtype=args.dtype)
    sweep = repro.BackendSweep(
        instance, backends=backends, replicas=replicas, methods=methods,
        config=config, rng=args.seed,
    )
    done = {"count": 0, "failed": 0}
    total = len(sweep.grid_points())

    def progress(outcome):
        done["count"] += 1
        if not outcome.ok:
            done["failed"] += 1
        status = "ok" if outcome.ok else "FAILED"
        print(f"  [{done['count']}/{total}] {outcome.job.tag}: {status} "
              f"({outcome.seconds:.2f}s)")

    try:
        points = sweep.run(
            max_workers=args.workers, progress=progress,
            raise_on_error=False,  # failed cells become NaN rows, not a crash
            strategy=args.strategy,
        )
    except ValueError as exc:
        # strategy='fused' on a non-shareable grid: surface the blockers.
        raise SystemExit(str(exc)) from None
    print()
    print(sweep.render(
        points, metrics=list(repro.BackendSweep.METRICS),
        title=f"Solver sweep on {instance.name} "
              f"({args.iterations} iterations, {args.workers} workers)",
    ))
    if done["failed"]:
        print(f"{done['failed']} grid point(s) failed (NaN rows above)")
        return 1
    try:
        best = sweep.best(points, "best_cost", maximize=False)
    except ValueError:
        print("no grid point found a feasible sample - increase --iterations")
        return 1
    print(f"best: method={best.params['method']} "
          f"backend={best.params['backend']} "
          f"R={best.params['replicas']} "
          f"profit {-best.metrics['best_cost']:.0f}")
    return 0


def _solve(args) -> int:
    """Solve an instance file with any registered method; one report shape."""
    import repro

    instance, kind = _load_instance(args.path)
    print(f"Loaded {kind.upper()} instance {instance.name!r} "
          f"({_describe_instance(instance)})")
    method = args.method
    if method not in repro.available_methods():
        raise SystemExit(
            f"unknown method {method!r}; choose from "
            f"{', '.join(repro.available_methods())}"
        )
    spec = repro.method_info(method)
    kwargs = {}
    if spec.uses_backend:
        backend = args.backend
        if backend is not None and backend not in repro.available_backends():
            raise SystemExit(
                f"unknown backend {backend!r}; choose from "
                f"{', '.join(repro.available_backends())}"
            )
        if backend is None and hasattr(instance, "clauses"):
            # Polynomial-objective families need the higher-order machine.
            backend = "higher_order"
        replicas = args.replicas if args.replicas is not None else 1
        if replicas < 1:
            raise SystemExit(f"--replicas must be >= 1, got {replicas}")
        kwargs.update(backend=backend, num_replicas=replicas)
        if args.restart is not None:
            kwargs.update(restart=args.restart)
    else:
        for flag, value in (("--backend", args.backend),
                            ("--replicas", args.replicas),
                            ("--dtype", args.dtype),
                            ("--restart", args.restart),
                            ("--iterations", args.iterations),
                            ("--mcs", args.mcs)):
            if value is not None:
                raise SystemExit(
                    f"method {method!r} is backend-free; {flag} does not apply"
                )
    if spec.uses_config:
        config = _scaled_config(
            kind,
            args.iterations if args.iterations is not None else 150,
            args.mcs if args.mcs is not None else 400,
        )
        if args.dtype is not None:
            # Through the config, not backend_options, so float64 stays
            # valid for every annealing method; mirror _sweep's up-front
            # rejection of the one known-bad combination.
            if args.dtype != "float64" and method == "penalty":
                raise SystemExit(
                    "--dtype float32 does not apply to the penalty method "
                    "(float64 reference kernel only)"
                )
            from dataclasses import replace

            config = replace(config, dtype=args.dtype)
        kwargs.update(config=config)
    kwargs.update(rng=args.seed)

    try:
        report = repro.solve(instance, method=method, **kwargs)
    except ValueError as exc:
        # e.g. a quadratic-only backend asked to solve a polynomial family.
        raise SystemExit(str(exc)) from None
    print(report.summary())
    if report.feasible:
        if hasattr(instance, "count_satisfied"):
            satisfied = instance.count_satisfied(report.best_x)
            print(f"satisfied clauses: {satisfied}/{instance.num_clauses}")
        elif kind == "qubo":
            print(f"best objective: {report.best_cost:.6g}")
        else:
            print(f"best profit: {-report.best_cost:.0f}")
        selected = [int(i) for i in np.nonzero(report.best_x)[0]]
        print(f"selected items: {selected}")
        return 0
    if spec.uses_config:
        print("no feasible sample found - increase --iterations")
    else:
        print("no feasible sample found - the instance has no feasible "
              "assignment for this method")
    return 1


def _export_qubo(args) -> int:
    """Encode an instance to its penalized QUBO and write qbsolv format."""
    from repro.core.encoding import encode_with_slacks
    from repro.core.penalty import build_penalty_qubo
    from repro.ising.qubo_io import write_qubo

    if args.penalty <= 0:
        raise SystemExit(f"--penalty must be > 0, got {args.penalty}")
    instance, kind = _load_instance(args.path)
    problem = (instance.to_problem() if hasattr(instance, "to_problem")
               else instance)
    if hasattr(problem, "terms"):
        raise SystemExit(
            "export-qubo is quadratic-only; polynomial instances have no "
            "QUBO form (solve them with `repro solve`, which runs them on "
            "backend='higher_order')"
        )
    try:
        encoded = encode_with_slacks(problem)
        model = build_penalty_qubo(encoded.problem, args.penalty)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    name = getattr(instance, "name", "") or args.path.stem
    num_slack = model.num_variables - encoded.num_original
    write_qubo(
        model, args.out,
        comment=f"{name}: penalized QUBO (P={args.penalty:g}), "
                f"{encoded.num_original} decision + {num_slack} slack bits",
    )
    print(f"wrote {args.out} ({model.num_variables} variables: "
          f"{encoded.num_original} decision + {num_slack} slack, "
          f"P={args.penalty:g})")
    return 0


def _serve(args) -> int:
    """Run the solver service in the foreground until interrupted."""
    from repro.service import RequestLogger, ServicePool, SolverService

    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    if args.queue_depth < 1:
        raise SystemExit(f"--queue-depth must be >= 1, got {args.queue_depth}")
    logger = (RequestLogger() if args.log == "-"
              else RequestLogger.open(args.log))
    pool = ServicePool(
        args.workers, mode=args.worker_mode, queue_depth=args.queue_depth,
        session_max_entries=args.session_max_entries, logger=logger,
    )
    service = SolverService(args.host, args.port, pool=pool)
    service.start()
    host, port = service.address
    print(f"repro solver service on http://{host}:{port} "
          f"({args.workers} {args.worker_mode} workers, queue depth "
          f"{args.queue_depth}); POST /v1/solve, GET /v1/health — "
          f"Ctrl-C to stop")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("interrupted; service stopped")
        return 0
    finally:
        logger.close()
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # `lint` forwards everything verbatim; argparse's REMAINDER only
    # engages at the first positional, so `repro lint --list-rules`
    # needs the short-circuit here.
    if list(argv[:1]) == ["lint"]:
        from repro.devtools.lint import main as lint_main

        forwarded = list(argv[1:])
        if forwarded[:1] == ["--"]:
            forwarded = forwarded[1:]
        return lint_main(forwarded)

    args = _build_parser().parse_args(argv)

    if args.command == "generate-qkp":
        from repro.problems.generators import generate_qkp
        from repro.problems.io import write_qkp

        instance = generate_qkp(
            args.items, args.density, rng=args.seed,
            name=f"{args.items}-{int(args.density * 100)}-{args.seed}",
        )
        write_qkp(instance, args.path)
        print(f"wrote {args.path}")
        return 0

    if args.command == "generate-mkp":
        from repro.problems.generators import generate_mkp
        from repro.problems.io import write_mkp

        instance = generate_mkp(
            args.items, args.knapsacks, tightness=args.tightness, rng=args.seed,
            name=f"{args.items}-{args.knapsacks}-{args.seed}",
        )
        write_mkp(instance, args.path)
        print(f"wrote {args.path}")
        return 0

    if args.command == "generate-max3sat":
        import json

        from repro.problems.io import problem_to_json
        from repro.problems.max3sat import generate_max3sat

        instance = generate_max3sat(
            args.variables, args.clauses, rng=args.seed,
            name=f"max3sat-{args.variables}x{args.clauses}-{args.seed}",
        )
        args.path.write_text(json.dumps(problem_to_json(instance)) + "\n")
        print(f"wrote {args.path}")
        return 0

    if args.command == "info":
        return _info()

    if args.command == "serve":
        return _serve(args)

    if args.command == "export-qubo":
        return _export_qubo(args)

    if args.command == "sweep":
        return _sweep(args)

    return _solve(args)


if __name__ == "__main__":
    sys.exit(main())
