"""Crash-containment reports (trust ring 3).

When the per-block containment boundary in :mod:`repro.core.mix` or
:mod:`repro.mixy.driver` catches an unexpected exception, it degrades
the block and records what happened here: a JSON report with the
exception, the block source, the delta-debugged minimal source, and the
fault-injection schedule (if one was installed), so the crash can be
re-run offline.  Reports are content-addressed — the same crash on the
same source overwrites one file instead of accumulating — and write
failures are swallowed: the report is an aid, never a new crash source.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from typing import Optional

from repro.fsio import atomic_write
from repro.smt.service import FaultInjector


def record_crash(
    error: BaseException,
    phase: str,
    source: str,
    shrunk_source: str,
    crash_dir: str,
    injector: Optional[FaultInjector] = None,
) -> Optional[str]:
    """Write one crash report; returns its path, or None if it could not
    be written (the containment path must stay exception-free)."""
    report = {
        "phase": phase,
        "exception_type": type(error).__name__,
        "message": str(error),
        "traceback": traceback.format_exc(),
        "source": source,
        "shrunk_source": shrunk_source,
        "fault_injection": injector.describe() if injector is not None else None,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    digest = hashlib.sha1(
        json.dumps(
            [phase, report["exception_type"], source], sort_keys=True
        ).encode("utf-8")
    ).hexdigest()[:12]
    path = os.path.join(crash_dir, f"crash-{digest}.json")
    try:
        os.makedirs(crash_dir, exist_ok=True)
        # Atomic: a run killed mid-report must not leave a torn JSON file
        # for the next triage pass to choke on.
        with atomic_write(path) as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError:
        return None
    return path


def repro_name(path: Optional[str]) -> str:
    """How a warning line names a recorded report: its content-addressed
    file name only, so the line (part of a reply's ``result``) does not
    depend on the crash directory a front door was given."""
    return os.path.basename(path) if path else "(report could not be written)"
