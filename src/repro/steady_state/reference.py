"""The full-``analyze()`` evaluation engine behind ``backend="reference"``.

The test and benchmark oracle the delta engine is checked and timed
against; see :mod:`repro.steady_state.backend` for how it is selected.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import MappingError
from .delta import ObjectiveScore
from .mapping import Mapping
from .throughput import PeriodAnalysis, analyze

__all__ = ["ReferenceAnalyzer"]


class ReferenceAnalyzer:
    """Full-``analyze()`` stand-in for :class:`DeltaAnalyzer`.

    The evaluation surface ``local_search`` and the online runtime use,
    each query answered by a fresh O(V+E) analysis of the candidate.
    The state is an immutable :class:`Mapping`, replaced only by a
    validated one: a bad task or PE raises
    :class:`~repro.errors.MappingError` at the call, state unchanged.
    """

    def __init__(
        self,
        mapping: Mapping,
        elide_local_comm: bool = False,
        merge_same_pe_buffers: bool = False,
    ) -> None:
        self.graph = mapping.graph
        self.platform = mapping.platform
        self.elide_local_comm = bool(elide_local_comm)
        self.merge_same_pe_buffers = bool(merge_same_pe_buffers)
        self._mapping = mapping

    def _with(self, changes: Dict[str, int]) -> Mapping:
        """The current mapping with ``changes`` applied, validated."""
        assign = self._mapping.to_dict()
        assign.update(changes)
        return Mapping(self.graph, self.platform, assign)

    def _swapped(self, a: str, b: str) -> Mapping:
        return self._with({a: self.pe_of(b), b: self.pe_of(a)})

    def _analyze(self, mapping: Mapping) -> PeriodAnalysis:
        return analyze(
            mapping,
            elide_local_comm=self.elide_local_comm,
            merge_same_pe_buffers=self.merge_same_pe_buffers,
        )

    def _evaluate(self, mapping: Mapping, objective) -> ObjectiveScore:
        """Objective score of ``mapping``, valued as ``DeltaAnalyzer``
        values the same candidate."""
        analysis = self._analyze(mapping)
        if objective is None:
            value = analysis.period
        elif getattr(objective, "needs_app_periods", False):
            value = objective.value(analysis.period, analysis.app_periods)
        else:
            value = objective.value(analysis.period, None)
        return ObjectiveScore(
            value=value,
            period=analysis.period,
            feasible=analysis.feasible,
            n_violations=len(analysis.violations),
        )

    def pe_of(self, task: str) -> int:
        return self._mapping.pe_of(task)

    def assignment(self) -> Dict[str, int]:
        """The current assignment, in graph task order."""
        return {name: self.pe_of(name) for name in self.graph.task_names()}

    def tasks_on(self, pe: int) -> List[str]:
        if not 0 <= pe < self.platform.n_pes:
            raise MappingError(
                f"invalid PE {pe!r} (platform has {self.platform.n_pes} PEs)"
            )
        return self._mapping.tasks_on(pe)

    def mapping(self) -> Mapping:
        return self._mapping

    def snapshot(self) -> PeriodAnalysis:
        return self._analyze(self._mapping)

    def period(self) -> float:
        return self.snapshot().period

    @property
    def feasible(self) -> bool:
        return self.snapshot().feasible

    def evaluate(self, objective=None) -> ObjectiveScore:
        return self._evaluate(self._mapping, objective)

    def evaluate_move(self, task: str, pe: int, objective=None) -> ObjectiveScore:
        return self._evaluate(self._with({task: pe}), objective)

    def evaluate_all_moves(
        self,
        tasks: Optional[Sequence[str]] = None,
        pes: Optional[Sequence[int]] = None,
        objective=None,
    ) -> List[List[ObjectiveScore]]:
        """One row of move scores per task; the stay-put cells share one
        analysis of the current state."""
        if tasks is None:
            tasks = self.graph.task_names()
        if pes is None:
            pes = range(self.platform.n_pes)
        current = self.evaluate(objective)
        return [
            [
                current
                if pe == self.pe_of(name)
                else self.evaluate_move(name, pe, objective)
                for pe in pes
            ]
            for name in tasks
        ]

    def evaluate_swaps(
        self, pairs: Sequence[Tuple[str, str]], objective=None
    ) -> List[ObjectiveScore]:
        return [self._evaluate(self._swapped(a, b), objective) for a, b in pairs]

    def best_move(
        self,
        tasks: Optional[Sequence[str]] = None,
        pes: Optional[Sequence[int]] = None,
        objective=None,
        period_cap: float = math.inf,
    ) -> Optional[Tuple[str, int, ObjectiveScore]]:
        """Same candidates, ranking and tie rule as
        :meth:`DeltaAnalyzer.best_move` (a stay-put cell scores the
        current state, so it never ranks strictly below it)."""
        if tasks is None:
            tasks = self.graph.task_names()
        if pes is None:
            pes = range(self.platform.n_pes)
        current = self.evaluate(objective)
        best: Optional[Tuple[str, int, ObjectiveScore]] = None
        best_key = (current.value, current.period)
        rows = self.evaluate_all_moves(tasks, pes, objective)
        for name, row in zip(tasks, rows):
            for pe, score in zip(pes, row):
                if not score.feasible:
                    continue
                if score.period > period_cap and score.period >= current.period:
                    continue
                key = (score.value, score.period)
                if key < best_key:
                    best, best_key = (name, pe, score), key
        return best

    def apply_move(self, task: str, pe: int) -> None:
        self._mapping = self._with({task: pe})

    def apply_swap(self, a: str, b: str) -> None:
        self._mapping = self._swapped(a, b)

    def apply_changes(self, changes: Dict[str, int]) -> None:
        self._mapping = self._with(changes)

    def clone(self) -> "ReferenceAnalyzer":
        return ReferenceAnalyzer(
            self._mapping,
            elide_local_comm=self.elide_local_comm,
            merge_same_pe_buffers=self.merge_same_pe_buffers,
        )

    def resync(self) -> None:  # always exact — nothing to re-anchor
        pass
