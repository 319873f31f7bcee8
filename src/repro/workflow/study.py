"""Study runner: executes a list of configurations and collects results.

This is the in-Python substitute for the paper's Snakemake workflow
("the workflow creates configuration files for Melissa runs across [the]
chosen grid", Appendix B.2).  Solvers and validation sets are shared across
all runs of a scenario — as they are in the paper, where the validation set is
fixed — which also avoids re-factorising the implicit solver per run.

Execution is delegated to a pluggable :mod:`repro.workflow.executor` backend:
``backend="serial"`` runs in-process, ``backend="process"`` (alias ``"shm"``)
fans the runs out over forked workers that inherit the study inputs the
driver built.  Both return the same picklable
:class:`~repro.workflow.results.RunResult` records, which every experiment
analysis reads.  Either way ``run_all`` can checkpoint completed runs to a
JSONL file as they finish and, given ``resume=``, skip the runs a previous
(interrupted) invocation already completed.  ``seeds=`` adds a seed axis to
the grid.  With ``checkpoint_every`` each run also snapshots its
session into ``<checkpoint>.snapshots/<index>-<name>/``, the name passed
through :func:`path_safe_name` (which also names campaign node directories).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.api.config import OnlineTrainingConfig
from repro.solvers.base import Solver
from repro.surrogate.validation import ValidationSet
from repro.utils.logging import get_logger
from repro.workflow.executor import (
    JsonlCheckpoint,
    RunSpec,
    StudyInputCache,
    apply_overrides,
    get_executor,
)
from repro.workflow.results import RunResult, StudyResults

__all__ = ["StudyRunner", "apply_overrides"]

_LOGGER = get_logger("workflow")


def path_safe_name(name: str) -> str:
    """``name`` with every run of characters unsafe in a path replaced by ``_``."""
    return re.sub(r"[^A-Za-z0-9._=+-]+", "_", name)


@dataclass
class StudyRunner:
    """Execute a set of run configurations derived from one base configuration.

    ``backend`` selects the executor (``"serial"``, or ``"process"`` and its
    alias ``"shm"``); ``max_workers`` bounds the worker pool of the parallel
    backend.
    """

    base_config: OnlineTrainingConfig
    study_name: str = "study"
    #: executor backend: any name in :data:`repro.workflow.executor.BACKENDS`
    backend: str = "serial"
    #: worker-pool size for the parallel backends (None → CPU count)
    max_workers: Optional[int] = None
    #: optional callback invoked after each run, e.g. for progress reporting
    on_result: Optional[Callable[[RunResult], None]] = None
    #: per-scenario cache of (solver, validation set) shared by serial runs
    _cache: StudyInputCache = field(default_factory=StudyInputCache, repr=False)

    # -------------------------------------------------------------- sharing
    def shared_solver(self) -> Solver:
        """The (pre-factorised) solver shared by every run of the base scenario."""
        return self._cache.inputs(self.base_config)[0]

    def shared_validation_set(self) -> Optional[ValidationSet]:
        """The fixed Halton validation set of the base scenario (``None`` if disabled)."""
        return self._cache.inputs(self.base_config)[1]

    # -------------------------------------------------------------- specs
    def run_names(self, configurations: List[Dict[str, Any]], name_key: Optional[str] = None) -> List[str]:
        """Derive the (unique) run name of every configuration.

        Duplicate names are suffixed with the configuration index — the
        checkpoint/resume machinery keys completed runs by name, so silent
        collisions would drop runs on resume.
        """
        names: List[str] = []
        seen: set = set()
        for index, overrides in enumerate(configurations):
            if name_key is not None and name_key in overrides:
                name = f"{self.study_name}:{overrides[name_key]}"
            elif "_factor" in overrides:
                name = f"{self.study_name}:{overrides['_factor']}={overrides['_value']}"
            else:
                name = f"{self.study_name}:{index}"
            if name in seen:
                deduped = f"{name}#{index}"
                _LOGGER.warning("duplicate run name %r; renaming to %r", name, deduped)
                name = deduped
            seen.add(name)
            names.append(name)
        return names

    def build_specs(
        self,
        configurations: List[Dict[str, Any]],
        name_key: Optional[str] = None,
        seeds: Optional[Sequence[int]] = None,
    ) -> List[RunSpec]:
        """Expand configurations into named, picklable :class:`RunSpec`\\ s.

        ``seeds`` crosses the grid with a seed axis: each configuration runs
        once per seed, with ``seed`` as an override and ``-s<seed>`` appended
        to its name.
        """
        base = self.base_config.to_dict()
        names = self.run_names(configurations, name_key)
        if seeds is not None:
            names = [f"{name}-s{seed}" for name in names for seed in seeds]
            configurations = [dict(c, seed=int(seed)) for c in configurations for seed in seeds]
        return [
            RunSpec(name=name, config=base, overrides=dict(overrides))
            for name, overrides in zip(names, configurations)
        ]

    @staticmethod
    def _snapshot_root(
        checkpoint: Optional[Union[str, Path]], resume: Optional[Union[str, Path]]
    ) -> Path:
        """Directory holding the per-run session snapshots of a study.

        The ``<checkpoint>.snapshots/`` sibling of the study's JSONL
        checkpoint, so ``run_all(cfgs, resume=path, checkpoint_every=N)`` with
        the same ``path`` finds both the completed-run records *and* the
        mid-run snapshots of the interrupted ones.
        """
        anchor = checkpoint if checkpoint is not None else resume
        if anchor is None:
            raise ValueError(
                "checkpoint_every needs somewhere to put session snapshots: "
                "pass a checkpoint=/resume= JSONL path to derive the "
                "<checkpoint>.snapshots/ directory from"
            )
        anchor = Path(anchor)
        return anchor.parent / f"{anchor.name}.snapshots"

    @staticmethod
    def _run_snapshot_dir(root: Path, index: int, name: str) -> Path:
        """Stable, filesystem-safe snapshot directory of one run.

        The configuration-index prefix keeps directories unique even when two
        run names sanitise to the same string; it is stable across
        invocations because specs are derived deterministically from the
        configuration list.
        """
        return root / f"{index:04d}-{path_safe_name(name)}"

    @staticmethod
    def _record_matches_spec(record: RunResult, spec: RunSpec) -> bool:
        """Whether a checkpointed record still describes ``spec``'s run.

        Resume keys on run names, but names omit the configuration — a record
        from a previous invocation with a different seed, scale, base config,
        or override set must be re-executed, not silently relabeled as the
        current study's result.  The effective-config fingerprint stamped on
        each record covers all of that; records from older checkpoints that
        predate the fingerprint fall back to the seed/workload/override
        comparison (overrides through a JSON round-trip, since the
        checkpointed copy already went through one).
        """
        config = spec.build_config()
        if record.digest:
            return record.digest == config.digest()
        if record.seed != config.seed or record.workload != config.workload:
            return False
        canonical = lambda d: json.dumps(d, sort_keys=True, default=str)  # noqa: E731
        return canonical(record.config) == canonical(spec.overrides)

    # -------------------------------------------------------------- running
    def run_all(
        self,
        configurations: List[Dict[str, Any]],
        name_key: Optional[str] = None,
        checkpoint: Optional[Union[str, Path]] = None,
        resume: Optional[Union[str, Path]] = None,
        checkpoint_every: Optional[int] = None,
        seeds: Optional[Sequence[int]] = None,
    ) -> StudyResults:
        """Run every configuration of a study and collect the results.

        Parameters
        ----------
        configurations:
            Flat override dicts (see :func:`apply_overrides`), one per run.
        name_key:
            Optional override key whose value names the run.
        checkpoint:
            Optional JSONL path; each completed run is durably appended
            as it finishes, in completion order.
        resume:
            Optional JSONL path of a previous invocation; runs whose names
            appear there *and* still match the current configuration
            (seed, workload, overrides) are not re-executed — their
            checkpointed records are spliced into the results.  When
            ``checkpoint`` is omitted, new completions are appended to the
            ``resume`` file, so the natural crash-recovery call is
            ``run_all(cfgs, resume=path)`` with the same ``path`` every
            time; when both are given and differ, the spliced records are
            copied into ``checkpoint`` so it stands alone.
        checkpoint_every:
            Optional *mid-run* snapshot period in training batches.  Each run
            then snapshots its full session state every N batches into a
            per-run directory under ``<checkpoint>.snapshots/``, and a resumed
            study re-enters partially completed runs from their latest
            snapshot — bit-identically — instead of restarting them from
            scratch.
        seeds:
            Optional seed axis (see :meth:`build_specs`).

        Results are ordered by configuration index regardless of the order
        runs complete in.
        """
        specs = self.build_specs(configurations, name_key, seeds)
        if checkpoint_every is not None and checkpoint_every > 0:
            root = self._snapshot_root(checkpoint, resume)
            specs = [
                replace(
                    spec,
                    checkpoint_dir=str(self._run_snapshot_dir(root, index, spec.name)),
                    checkpoint_every=int(checkpoint_every),
                )
                for index, spec in enumerate(specs)
            ]
        sink_path = checkpoint if checkpoint is not None else resume
        sink = JsonlCheckpoint(sink_path) if sink_path is not None else None
        completed: Dict[str, RunResult] = {}
        if resume is not None:
            # One instance when the sink is the resume file: its log counts
            # the records while loading them, not again on the first append.
            completed = (sink if checkpoint is None else JsonlCheckpoint(resume)).load()

        pending: List[RunSpec] = []
        resumed: List[RunResult] = []
        for spec in specs:
            record = completed.get(spec.name)
            if record is not None and self._record_matches_spec(record, spec):
                resumed.append(record)
            else:
                if record is not None:
                    _LOGGER.warning(
                        "checkpointed run %s does not match the current configuration "
                        "(seed/workload/overrides changed); re-executing",
                        spec.name,
                    )
                    completed.pop(spec.name)
                pending.append(spec)
        if resumed:
            _LOGGER.info(
                "%s: resuming — %d/%d runs already checkpointed",
                self.study_name,
                len(resumed),
                len(specs),
            )
        # A fresh checkpoint file must stand alone for future resumes: seed it
        # with the records spliced in from a *different* resume file.
        if sink is not None and resume is not None and sink.path.resolve() != Path(resume).resolve():
            for record in resumed:
                sink.append(record)

        executor = get_executor(self.backend, max_workers=self.max_workers, cache=self._cache)
        n_finished = 0

        def on_record(index: int, record: RunResult) -> None:
            nonlocal n_finished
            n_finished += 1
            _LOGGER.info(
                "finished %s (%d/%d, backend=%s)", record.name, n_finished, len(pending), self.backend
            )
            if sink is not None:
                sink.append(record)
            if self.on_result is not None:
                self.on_result(record)

        records = executor.execute(pending, on_record)

        by_name = dict(completed)
        by_name.update({record.name: record for record in records})
        results = StudyResults(study=self.study_name)
        for spec in specs:
            results.add(by_name[spec.name])
        return results
