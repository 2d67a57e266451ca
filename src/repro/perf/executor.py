"""Deterministic process-pool fan-out.

:func:`fanout` runs one picklable worker function over a list of
tasks and returns results **in task order**, so callers can merge
deterministically no matter how many workers raced.  The contract
every parallel entry point in the flow builds on:

* work is partitioned *before* execution (no work stealing that could
  reorder results);
* ``workers=1`` (or a single task) executes serially inline -- that is
  the reference behaviour the parallel path must reproduce bit-for-bit;
* randomness is never shared across tasks -- callers pass explicit
  per-task seeds / spawned ``numpy.random.Generator`` streams, so the
  answer is a pure function of the task list.

Data every task reads (the modules a lint pass fans out over) goes in
``shared``: it reaches each pool worker once, through the pool
initializer, and the tasks carry only what tells them apart.

Worker-count resolution: explicit argument, else the ``REPRO_WORKERS``
environment variable, else ``os.cpu_count()``.  If the pool cannot be
used (unpicklable work, restricted environment), :func:`fanout` falls
back to serial execution -- same results, no parallelism.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence, TypeVar

from .metrics import REGISTRY

#: Environment variable consulted when no worker count is passed.
WORKERS_ENV = "REPRO_WORKERS"

#: What a process pool raises when it cannot be used: unpicklable work,
#: a restricted environment, or a pool that died mid-flight.
POOL_ERRORS = (pickle.PicklingError, AttributeError, TypeError, OSError,
               ImportError, BrokenProcessPool)

_Result = TypeVar("_Result")


class FanoutTaskError(RuntimeError):
    """One task of a fan-out failed; carries *which* one.

    A bare exception out of ``pool.map`` loses the task it came from --
    all the caller sees is a traceback re-raised in the parent.
    :func:`fanout` re-raises every worker exception as this type, with
    the originating task's label (``{stage}[{index}]``) and the stage
    attached and the original exception chained as ``__cause__``.
    """

    def __init__(self, message: str, *, label: str, stage: str) -> None:
        super().__init__(message)
        self.label = label
        self.stage = stage


def _guarded_call(
    packed: tuple[Callable[[Any], Any], Any, str],
) -> tuple[bool, Any]:
    """Run one labelled task; capture the exception instead of raising.

    Module-level so the tuple stream is picklable into pool workers.
    Returns ``(True, result)`` or ``(False, (label, exception))`` --
    the exception object itself travels back so the parent can chain
    it under :class:`FanoutTaskError`.
    """
    worker, task, label = packed
    try:
        return True, worker(task)
    except Exception as exc:  # noqa: BLE001 - re-raised labelled below
        return False, (label, exc)


#: This pool worker's copy of a fan-out's ``shared`` value.
_SHARED: Any = None


def _install_shared(shared: Any) -> None:
    """Pool initializer: keep ``shared`` for every task of this worker."""
    global _SHARED
    _SHARED = shared


def _with_shared(worker: Callable[[Any, Any], Any], task: Any) -> Any:
    return worker(_SHARED, task)


def resolve_workers(workers: int | None = None) -> int:
    """Effective worker count: argument > env > cpu count (min 1)."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "")
        if env.strip():
            try:
                workers = int(env)
            except ValueError:
                workers = None
        if workers is None:
            workers = os.cpu_count() or 1
    return max(1, int(workers))


def fanout(
    worker: Callable[..., _Result],
    tasks: Sequence[Any],
    *,
    stage: str,
    workers: int | None = None,
    shared: Any = None,
) -> list[_Result]:
    """Run ``worker`` over ``tasks``; results in task order.

    ``worker`` must be a module-level function and each task must be
    picklable for the process-pool path; otherwise execution silently
    degrades to serial (identical results).  The whole fan-out is
    timed on the perf registry under ``stage``, with a ``tasks``
    counter.

    Task *i* is labelled ``{stage}[{i}]``.  A worker exception, serial
    or in the pool, surfaces as :class:`FanoutTaskError` carrying the
    failing task's label and the stage, with the original exception
    as its cause -- instead of a bare traceback that does not say
    which task died.

    When ``shared`` is given, ``worker`` is called as ``worker(shared,
    task)``.  Each pool worker receives ``shared`` once, through the
    pool initializer: inherited without pickling under the ``fork``
    start method, pickled once per worker under the others.  That is a
    known trade-off: under ``spawn`` or ``forkserver`` every worker
    unpickles all of ``shared``, where data carried by the tasks is
    unpickled once in total.  ``lint_modules(workers=4)`` over nine
    DSC blocks took 0.43-0.47 s with ``shared`` against 0.96-0.99 s
    with a module per task under ``fork``, but 2.2-2.8 s against
    1.7-2.0 s under ``forkserver`` (2-core host).
    """
    tasks = list(tasks)
    pool_kwargs: dict[str, Any] = {}
    call: Callable[[Any], Any] = worker
    pool_call: Callable[[Any], Any] = worker
    if shared is not None:
        call = partial(worker, shared)
        pool_call = partial(_with_shared, worker)
        pool_kwargs = {"initializer": _install_shared, "initargs": (shared,)}
    n_workers = min(resolve_workers(workers), len(tasks))
    labels = [f"{stage}[{index}]" for index in range(len(tasks))]

    def _raise_labelled(label: str, exc: Exception) -> None:
        raise FanoutTaskError(
            f"fanout task failed (stage {stage!r}, task {label!r}): "
            f"{type(exc).__name__}: {exc}",
            label=label, stage=stage,
        ) from exc

    def _run_serial() -> list[_Result]:
        results = []
        for task, label in zip(tasks, labels):
            try:
                results.append(call(task))
            except FanoutTaskError:
                raise
            except Exception as exc:  # noqa: BLE001 - re-raised labelled
                _raise_labelled(label, exc)
        return results

    def _run() -> list[_Result]:
        if n_workers <= 1:
            return _run_serial()
        try:
            with ProcessPoolExecutor(max_workers=n_workers,
                                     **pool_kwargs) as pool:
                outcomes = list(pool.map(
                    _guarded_call,
                    [(pool_call, task, label)
                     for task, label in zip(tasks, labels)],
                ))
        except POOL_ERRORS:
            # Unpicklable work or a restricted environment: the workers
            # are pure functions of their task, so a serial rerun is
            # safe and yields the same results.
            return _run_serial()
        results = []
        for ok, value in outcomes:
            if not ok:
                label, exc = value
                _raise_labelled(label, exc)
            results.append(value)
        return results

    with REGISTRY.timer(stage) as stats:
        results = _run()
        stats.add(tasks=len(tasks))
    return results
