"""Kernel-backend selection and the backend-independence contract.

Covers the selection layer itself (``resolve_backend`` precedence:
explicit argument > ``REPRO_KERNEL_BACKEND`` > auto-detection, error
paths when numpy is requested but unavailable), the way
:class:`DeltaAnalyzer` / the strategies / :class:`OnlineScheduler`
thread the choice through, the batch-API validation errors, and —
nightly, gated on ``REPRO_XCHECK_LARGE=1`` — a scaled-up scalar-vs-numpy
cross-check on large random graphs.  The per-entry bit-exactness
property suite lives in ``tests/test_compiled.py``.
"""

import os
import random

import pytest

from test_delta import PLATFORMS, integer_cost_graph

from repro.errors import KernelBackendError, MappingError
from repro.heuristics import (
    critical_path_mapping,
    genetic_algorithm,
    local_search,
    simulated_annealing,
    tabu_search,
)
from repro.platform import CellPlatform
from repro.runtime import OnlineScheduler
from repro.steady_state import (
    BACKEND_ENV_VAR,
    NO_EXTENSION_ENV_VAR,
    REFERENCE_BACKEND,
    DeltaAnalyzer,
    KERNEL_BACKENDS,
    Mapping,
    ReferenceAnalyzer,
    available_backends,
    cython_available,
    make_analyzer,
    numpy_available,
    resolve_backend,
)
from repro.steady_state import backend as backend_mod

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend unavailable"
)
needs_cython = pytest.mark.skipif(
    not cython_available(), reason="compiled extension not built"
)


class TestResolveBackend:
    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend("python") == "python"

    def test_env_var_used_when_no_argument(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert resolve_backend() == "python"

    def test_auto_detects(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        if cython_available():
            expected = "cython"
        else:
            expected = "numpy" if numpy_available() else "python"
        assert resolve_backend() == expected
        assert resolve_backend("auto") == expected
        monkeypatch.setenv(BACKEND_ENV_VAR, "auto")
        assert resolve_backend() == expected

    def test_auto_precedence_pinned(self, monkeypatch):
        """auto resolves cython > numpy > python, degrading one step at
        a time as backends become unavailable."""
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        monkeypatch.delenv(NO_EXTENSION_ENV_VAR, raising=False)
        monkeypatch.setattr(backend_mod, "_CYTHON_OK", True)
        monkeypatch.setattr(backend_mod, "_NUMPY_OK", True)
        assert resolve_backend("auto") == "cython"
        monkeypatch.setattr(backend_mod, "_CYTHON_OK", False)
        assert resolve_backend("auto") == "numpy"
        monkeypatch.setattr(backend_mod, "_NUMPY_OK", False)
        assert resolve_backend("auto") == "python"

    def test_selection_is_trimmed_and_case_insensitive(self):
        assert resolve_backend("  PYTHON ") == "python"

    def test_unknown_name_raises_with_source(self, monkeypatch):
        with pytest.raises(KernelBackendError, match="backend argument"):
            resolve_backend("fortran")
        monkeypatch.setenv(BACKEND_ENV_VAR, "fortran")
        with pytest.raises(KernelBackendError, match=BACKEND_ENV_VAR):
            resolve_backend()

    def test_reference_is_selected_only_explicitly(self, monkeypatch):
        assert REFERENCE_BACKEND not in KERNEL_BACKENDS
        assert REFERENCE_BACKEND not in available_backends()
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend() != REFERENCE_BACKEND
        g = integer_cost_graph(2, n_min=6, n_max=9)
        mapping = Mapping.all_on_ppe(g, CellPlatform.qs22())
        assert isinstance(
            make_analyzer(mapping, REFERENCE_BACKEND), ReferenceAnalyzer
        )
        # The metaheuristics need the delta engine: they reject the name.
        for strategy in (tabu_search, simulated_annealing, genetic_algorithm):
            with pytest.raises(KernelBackendError, match=REFERENCE_BACKEND):
                strategy(g, CellPlatform.qs22(), backend=REFERENCE_BACKEND)
        monkeypatch.setenv(BACKEND_ENV_VAR, REFERENCE_BACKEND)
        with pytest.raises(KernelBackendError, match=BACKEND_ENV_VAR):
            resolve_backend()
        with pytest.raises(KernelBackendError, match=BACKEND_ENV_VAR):
            local_search(mapping)
        with pytest.raises(KernelBackendError, match=BACKEND_ENV_VAR):
            OnlineScheduler(CellPlatform.qs22())

    def test_numpy_request_without_numpy_raises(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        monkeypatch.setattr(backend_mod, "_NUMPY_OK", False)
        monkeypatch.setattr(backend_mod, "_CYTHON_OK", False)
        assert available_backends() == ("python",)
        assert resolve_backend() == "python"  # auto falls back silently
        with pytest.raises(KernelBackendError, match="not importable"):
            resolve_backend("numpy")
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        with pytest.raises(KernelBackendError, match=BACKEND_ENV_VAR):
            resolve_backend()

    def test_cython_request_without_extension_raises(self, monkeypatch):
        """Explicit cython selection in a pure-python install fails with
        an error that names the fix (how to build the extension)."""
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        monkeypatch.setattr(backend_mod, "_CYTHON_OK", False)
        assert "cython" not in available_backends()
        with pytest.raises(KernelBackendError, match="pip install"):
            resolve_backend("cython")
        with pytest.raises(KernelBackendError, match="build_ext"):
            resolve_backend("cython")
        monkeypatch.setenv(BACKEND_ENV_VAR, "cython")
        with pytest.raises(KernelBackendError, match=BACKEND_ENV_VAR):
            resolve_backend()

    def test_no_extension_env_disables_cython(self, monkeypatch):
        """REPRO_NO_EXTENSION makes a built extension invisible (the CI
        no-extension leg)."""
        monkeypatch.setenv(NO_EXTENSION_ENV_VAR, "1")
        assert not cython_available()
        assert "cython" not in available_backends()
        with pytest.raises(KernelBackendError, match="not built"):
            resolve_backend("cython")

    def test_available_backends_reflect_build_state(self, monkeypatch):
        monkeypatch.delenv(NO_EXTENSION_ENV_VAR, raising=False)
        monkeypatch.setattr(backend_mod, "_NUMPY_OK", True)
        monkeypatch.setattr(backend_mod, "_CYTHON_OK", True)
        assert available_backends() == ("python", "numpy", "cython")
        monkeypatch.setattr(backend_mod, "_CYTHON_OK", False)
        assert available_backends() == ("python", "numpy")
        # and the real build state is what cython_available() reports
        monkeypatch.undo()
        assert ("cython" in available_backends()) == cython_available()

    def test_registry_names(self):
        assert KERNEL_BACKENDS == ("python", "numpy", "cython")
        assert available_backends()[0] == "python"


class TestAnalyzerBackend:
    def _state(self, **kwargs):
        g = integer_cost_graph(1, n_min=6, n_max=9)
        mapping = Mapping.all_on_ppe(g, CellPlatform.qs22())
        return DeltaAnalyzer(mapping, **kwargs)

    def test_python_backend_has_no_kernel(self):
        state = self._state(backend="python")
        assert state.backend == "python"
        assert state._kernel is None

    @needs_numpy
    def test_numpy_backend_builds_kernel(self):
        state = self._state(backend="numpy")
        assert state.backend == "numpy"
        assert state._kernel is not None

    @needs_numpy
    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert self._state().backend == "python"
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert self._state().backend == "numpy"

    @needs_cython
    def test_cython_backend_builds_ckernel(self):
        state = self._state(backend="cython")
        assert state.backend == "cython"
        assert state._ck is not None
        # the dense numpy batch kernels stay active alongside
        assert (state._kernel is not None) == numpy_available()

    def test_non_cython_backends_have_no_ckernel(self):
        assert self._state(backend="python")._ck is None
        if numpy_available():
            assert self._state(backend="numpy")._ck is None

    @needs_numpy
    def test_clone_preserves_backend(self):
        for backend in available_backends():
            state = self._state(backend=backend)
            assert state.clone().backend == backend

    def test_batch_validation_errors(self):
        state = self._state(backend=None)
        names = state.graph.task_names()
        with pytest.raises(MappingError, match="not mapped"):
            state.score_assignments([{}, {"missing-task": 0}])
        with pytest.raises(MappingError, match="invalid PE"):
            state.score_assignments([{}, {names[0]: 99}])
        with pytest.raises(MappingError):
            state.score_move_matrix(pes=[0, 99])
        with pytest.raises(MappingError):
            state.evaluate_swaps([(names[0], "missing-task")] * 2)


@needs_numpy
class TestBackendThreading:
    """The strategies and the online runtime honour ``backend=``."""

    def test_local_search_backend_independent(self):
        g = integer_cost_graph(6, n_min=12, n_max=16)
        start = critical_path_mapping(g, CellPlatform.qs22())
        a = local_search(start, max_rounds=5, backend="python")
        b = local_search(start, max_rounds=5, backend="numpy")
        assert a.to_dict() == b.to_dict()

    def test_tabu_search_backend_independent(self):
        g = integer_cost_graph(6, n_min=12, n_max=16)
        a = tabu_search(g, CellPlatform.qs22(), seed=3, rounds=10, backend="python")
        b = tabu_search(g, CellPlatform.qs22(), seed=3, rounds=10, backend="numpy")
        assert a.to_dict() == b.to_dict()

    def test_online_scheduler_forwards_backend(self):
        from repro.runtime.events import AppArrival

        for backend in available_backends():
            sched = OnlineScheduler(CellPlatform.qs22(), backend=backend)
            sched.run([AppArrival(0.0, "app", integer_cost_graph(2, n_min=6, n_max=9))])
            assert sched.state.backend == backend

    def test_online_scheduler_rejects_unknown_backend_at_construction(self):
        with pytest.raises(KernelBackendError, match="bogus"):
            OnlineScheduler(CellPlatform.qs22(), backend="bogus")

    def test_online_report_names_the_engine_resolved_at_construction(
        self, monkeypatch
    ):
        from repro.runtime.events import AppArrival

        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        sched = OnlineScheduler(CellPlatform.qs22())
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        sched.run([AppArrival(0.0, "app", integer_cost_graph(2, n_min=6, n_max=9))])
        assert sched.state.backend == "numpy"
        assert sched.report().kernel_backend == "numpy"


@needs_numpy
@pytest.mark.skipif(
    not os.environ.get("REPRO_XCHECK_LARGE"),
    reason="nightly scale: set REPRO_XCHECK_LARGE=1",
)
def test_large_random_graph_cross_check():
    """Nightly: the scalar kernel and every other available backend
    agree verdict for verdict on graphs an order of magnitude past the
    tier-1 sizes, interleaved with applies (exercises the cached-state
    invalidation paths at scale)."""
    others = [b for b in available_backends() if b != "python"]
    for seed in range(4):
        g = integer_cost_graph(seed, n_min=120, n_max=180)
        platform = PLATFORMS[seed % len(PLATFORMS)]
        rng = random.Random(1000 + seed)
        names = g.task_names()
        n_pes = platform.n_pes
        assignment = {n: rng.randrange(n_pes) for n in names}
        mapping = Mapping(g, platform, assignment)
        scalar = DeltaAnalyzer(mapping, backend="python")
        states = [DeltaAnalyzer(mapping, backend=b) for b in others]
        for _ in range(3):
            pairs = [tuple(rng.sample(names, 2)) for _ in range(64)]
            candidates = [
                {n: rng.randrange(n_pes) for n in rng.sample(names, 10)}
                for _ in range(32)
            ]
            ref_moves = {n: scalar.score_moves(n) for n in names}
            ref_best = scalar.best_move()
            ref_swaps = [scalar.score_swap(a, b) for a, b in pairs]
            ref_changes = [scalar.score_changes(ch) for ch in candidates]
            for other in states:
                worst, nviol = other.score_move_matrix()
                for i, name in enumerate(names):
                    for pe, score in enumerate(ref_moves[name]):
                        assert float(worst[i, pe]) == score.period
                        assert int(nviol[i, pe]) == score.n_violations
                assert other.best_move() == ref_best
                assert other.score_swaps(pairs) == ref_swaps
                assert other.score_assignments(candidates) == ref_changes
                assert [
                    (s.period, s.n_violations)
                    for n in names[:16]
                    for s in other.score_moves(n)
                ] == [
                    (s.period, s.n_violations)
                    for n in names[:16]
                    for s in ref_moves[n]
                ]
            for _ in range(5):
                name = rng.choice(names)
                pe = rng.randrange(n_pes)
                scalar.apply_move(name, pe)
                for other in states:
                    other.apply_move(name, pe)
            for other in states:
                assert other.snapshot() == scalar.snapshot()
