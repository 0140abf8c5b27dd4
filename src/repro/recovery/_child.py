"""Subprocess entry point for kill injection.

Runs one journaled target (see :data:`repro.recovery.harness.TARGETS`) and
— when ``--kill-after k`` is positive — SIGKILLs its own process the
instant the k-th journal event is durable on disk.  SIGKILL cannot be
caught, blocked, or cleaned up after, so the surviving state is exactly
what the journal + atomic checkpoints and snapshots promise and nothing
more: the honest crash model.

Not part of the public API; invoked as ``python -m repro.recovery._child``
by :func:`repro.recovery.harness.spawn_killed`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from repro.recovery.harness import TARGETS, run_target


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.recovery._child")
    parser.add_argument("--target", required=True, choices=TARGETS)
    parser.add_argument("--run-dir", required=True,
                        help="run directory (the cache root for pipeline)")
    parser.add_argument("--config", required=True,
                        help="the target's config as a JSON object")
    parser.add_argument("--kill-after", type=int, default=0,
                        help="SIGKILL self after this many journal events "
                             "(0 = run to completion)")
    args = parser.parse_args(argv)

    events_seen = 0

    def _kill_at_k(event) -> None:
        nonlocal events_seen
        events_seen += 1
        if args.kill_after > 0 and events_seen >= args.kill_after:
            # The k-th event is already fsync'd; die with no goodbye.
            os.kill(os.getpid(), signal.SIGKILL)

    run_target(args.target, json.loads(args.config), args.run_dir, on_event=_kill_at_k)
    return 0


if __name__ == "__main__":
    sys.exit(main())
