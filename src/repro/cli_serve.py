"""The ``repro serve`` verb: run the sweep daemon in the foreground.

Split alongside :mod:`repro.cli_campaign` so :mod:`repro.cli` stays a
routing table.  The daemon itself lives in
:mod:`repro.execution.serve`; this module only parses flags, builds
the shared :class:`~repro.execution.jobs.JobManager`, and turns
Ctrl-C or SIGTERM into the repo-wide 130 exit after cancelling live
jobs.
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import signal
import sys

from repro.errors import ExperimentError


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.execution.jobs import JobManager
    from repro.execution.serve import ReproServer

    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    try:
        # Validate the default worker knob the same way the orchestrator
        # would, so a typo fails at startup, not at first submission.
        from repro.experiments.executor import parse_workers

        if args.workers is not None:
            parse_workers(args.workers, "--workers")
        manager = JobManager(
            cache_dir=args.cache_dir,
            use_cache=False if args.no_cache else None,
            workers=args.workers,
        )
        server = ReproServer(host=args.host, port=args.port, manager=manager)
    except ExperimentError as exc:
        print(f"serve: error: {exc}", file=sys.stderr)
        return 2

    async def run() -> None:
        await server.start()
        print(
            f"repro serve listening on http://{server.host}:{server.port} "
            "(Ctrl-C to stop)",
            flush=True,
        )
        await server.serve_forever()

    # A daemon must die cleanly on SIGTERM (systemd stop, docker stop,
    # CI teardown) exactly like Ctrl-C: cancel live jobs, exit 130.
    # Routing it through KeyboardInterrupt shares the handler below.
    # Shells also start background children with SIGINT ignored, so
    # restore it explicitly.
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        manager.shutdown()
        print("\nserve: interrupted", file=sys.stderr)
        return 130
    except OSError as exc:  # bind failures: address in use, bad host
        print(f"serve: error: {exc}", file=sys.stderr)
        return 2
    return 0


def register_serve_parser(sub) -> None:
    """Attach the ``serve`` subcommand to the top-level subparsers."""
    serve_p = sub.add_parser(
        "serve",
        help="run the HTTP sweep daemon (submit jobs, stream events)",
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_p.add_argument(
        "--port", type=int, default=8023, help="bind port (0 = ephemeral)"
    )
    serve_p.add_argument(
        "--workers",
        default=None,
        help="default worker count for submitted jobs (integer or 'auto'); "
        "individual submissions may override per job",
    )
    serve_p.add_argument("--cache-dir", default=None, help="shared result cache")
    serve_p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache (also disables cross-job sharing)",
    )
    serve_p.add_argument(
        "--verbose", action="store_true", help="request/job logging"
    )
    serve_p.set_defaults(func=_cmd_serve)
