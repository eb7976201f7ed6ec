"""The forked workers of the attribution stability bootstrap.

Only a forked worker imports this module (``pipeline._serve``, after the
fork), so the process running the pipeline never compiles or holds it.
Workers claim 2-byte tokens, in order, from one non-blocking pipe that holds
every token before the first fork; a token stands for a run of consecutive
chunks of an ``attribution.StabilityPlan``.  The lead claims from the start;
the helper, forked at the join, is handed the token the parent claimed.
"""

from __future__ import annotations

import logging
import os
import pickle
from functools import partial
from typing import NoReturn

from . import attribution as attr
from . import pipeline


class Records(logging.Handler):
    """Keeps log records, flattened so that they pickle."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.format(record)  # sets record.message and, with exc_info, record.exc_text
        record.msg, record.args, record.exc_info = record.message, None, None
        self.records.append(record)


def serve(fd: int, work: str, *args) -> NoReturn:
    """Run ``<work>(*args)`` of this module and pickle the outcome to ``fd``.

    The package's log records are kept for the parent to re-emit, not handed
    to the handlers inherited from it.  The worker leaves through
    ``os._exit`` whatever happens, so it never unwinds into the caller's
    stack or runs exit handlers; status 0 means the whole outcome was
    written.
    """
    status = 1
    try:
        records = Records()
        package = logging.getLogger(__package__)
        package.handlers, package.propagate = [records], False
        try:
            outcome = (True, globals()[work](*args))
        except BaseException as exc:
            outcome = (False, exc)
        with os.fdopen(fd, "wb") as pipe:
            pickle.dump((outcome, records.records), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def solve_claimed(plan: attr.StabilityPlan, tokens: int, first: bytes = b"") -> dict[int, tuple]:
    """Solve every chunk this worker claims from ``tokens``, ``first`` first.

    An outcome is (ok, rankings or exception, the chunk's package log
    records).  After a failed chunk the remaining tokens are drained
    unsolved: no later chunk can change the result.
    """
    count = len(plan.parts)
    runs = min(count, pipeline._MAX_TOKENS)
    package = logging.getLogger(__package__)
    solved: dict[int, tuple] = {}
    failed = False
    token = first or os.read(tokens, pipeline._TOKEN)
    while token:
        t = int.from_bytes(token, "big")
        for index in range(t * count // runs, (t + 1) * count // runs):
            if failed:
                break
            kept, outer = Records(), package.handlers
            package.handlers = [kept]
            try:
                outcome = (True, attr.solve_stability_chunk(plan, index))
            except Exception as exc:
                outcome, failed = (False, exc), True
            finally:
                package.handlers = outer
            solved[index] = (*outcome, kept.records)
        token = os.read(tokens, pipeline._TOKEN)
    return solved


def lead(job: partial, tokens: int, helper: int) -> attr.StabilityResult:
    """Solve the claimed chunks, merge the helper's, and finish in chunk order.

    The helper's outcomes are read only if a chunk below the lead's first
    failure is missing.  Each chunk's records are re-emitted in chunk order
    before its rankings are used or its exception is raised, so the lowest
    failing chunk's exception is raised, and nothing logged depends on which
    worker solved what.
    """
    plan = job()
    solved = solve_claimed(plan, tokens)
    stop = min((i for i, outcome in solved.items() if not outcome[0]), default=len(plan.parts))
    if any(i not in solved for i in range(stop)):
        with os.fdopen(helper, "rb") as pipe:
            data = pipe.read()
        try:
            (ok, theirs), _ = pickle.loads(data)
        except (pickle.UnpicklingError, EOFError):  # the helper died
            ok = False
        if ok:
            solved = {**theirs, **solved}
    rankings = []
    for index in range(len(plan.parts)):
        if index not in solved:
            raise ChildProcessError(
                f"stability chunk {index} was claimed by a helper that ended without solving it"
            )
        ok, value, records = solved[index]
        for record in records:
            logging.getLogger(record.name).handle(record)
        if not ok:
            raise value
        rankings.append(value)
    return attr.finish_stability(plan, rankings)


def helper(job: partial, tokens: int, first: bytes) -> dict[int, tuple]:
    return solve_claimed(job(), tokens, first)
