"""Kernel-backend selection for the delta engine.

PR 5 compiled graphs into integer CSR arrays (:mod:`.compiled`); the
neighbourhood arithmetic itself can now run on three interchangeable
backends behind the same :class:`~repro.steady_state.delta.DeltaAnalyzer`
API:

``python``
    The scalar reference kernel — pure-Python loops over the CSR
    arrays.  Always available, and the semantics oracle: every other
    backend must reproduce its results bit for bit on integer-valued
    cost graphs (and within one ulp otherwise, where summation order
    differs).
``numpy``
    Dense array kernels (:mod:`.backend_numpy`): one masked cost-matrix
    pass per neighbourhood (all tasks × all PEs), a pairwise
    swap-neighbourhood kernel, and a population-level "score K
    assignments at once" pass for the GA.  Requires numpy at runtime.
``cython``
    The compiled extension (:mod:`.backend_cython` over
    ``repro.steady_state._ckernel``): native scalar hot paths for
    exactly the work the dense kernels leave to Python — per-candidate
    scoring in the mapping-dependent buffer modes (including the
    incremental ``firstPeriod`` worklist), the ``_apply``/resync commit
    path, and in-place clone-state copies for the GA pool.  Requires
    the extension to have been built (``pip install .`` compiles it
    when a C compiler is present; pure-python installs skip it).  When
    numpy is also importable the dense batch kernels stay active
    alongside the native scalar paths.

Selection precedence (highest first):

1. an explicit ``backend=`` argument to ``DeltaAnalyzer`` /
   ``OnlineScheduler`` / the strategy entry points;
2. the ``REPRO_KERNEL_BACKEND`` environment variable
   (``python`` | ``numpy`` | ``cython`` | ``auto``);
3. ``auto`` — the compiled extension when importable, else numpy when
   importable, else the scalar kernel.

Requesting ``numpy`` or ``cython`` explicitly (argument or env var) in
an environment that cannot satisfy it raises
:class:`~repro.errors.KernelBackendError` naming the fix; ``auto``
silently falls back down the precedence chain.  Under the ``python``
and ``numpy`` backends the mapping-dependent buffer modes
(``elide_local_comm`` / ``merge_same_pe_buffers``) always evaluate on
the scalar kernel — the vectorized passes cover the default buffer
model, where candidate footprints are mapping-independent; the
``cython`` backend is the one that accelerates those modes.

Setting ``REPRO_NO_EXTENSION=1`` makes the process behave as if the
extension were never built (CI's forced no-extension leg).

``backend="reference"`` is no kernel: :func:`make_analyzer` then builds
the full-``analyze()`` ``ReferenceAnalyzer``, the test and benchmark
oracle.  Only that explicit argument selects it; ``REPRO_KERNEL_BACKEND``,
``auto`` and :func:`available_backends` never do, and
:func:`resolve_backend` (so the metaheuristics) rejects the name.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from ..errors import KernelBackendError

__all__ = [
    "BACKEND_ENV_VAR",
    "KERNEL_BACKENDS",
    "NO_EXTENSION_ENV_VAR",
    "REFERENCE_BACKEND",
    "available_backends",
    "cython_available",
    "make_analyzer",
    "numpy_available",
    "resolve_backend",
]

#: Environment variable consulted when no explicit backend is passed.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: When set (to anything non-empty), the compiled extension is treated
#: as unavailable even if built — the CI no-extension leg sets this.
NO_EXTENSION_ENV_VAR = "REPRO_NO_EXTENSION"

#: The recognised backend names (``auto`` additionally accepted as a
#: selector meaning "pick for me").
KERNEL_BACKENDS: Tuple[str, ...] = ("python", "numpy", "cython")

#: The full-``analyze()`` oracle engine, selectable only explicitly.
REFERENCE_BACKEND = "reference"

_NUMPY_OK: Optional[bool] = None
_CYTHON_OK: Optional[bool] = None


def numpy_available() -> bool:
    """Whether the numpy kernel backend can be used in this process."""
    global _NUMPY_OK
    if _NUMPY_OK is None:
        try:
            import numpy  # noqa: F401

            _NUMPY_OK = True
        except ImportError:  # pragma: no cover - exercised via stubbing
            _NUMPY_OK = False
    return _NUMPY_OK


def cython_available() -> bool:
    """Whether the compiled kernel extension can be used in this process.

    False when the extension was never built (pure-python install, no
    C compiler) and when ``REPRO_NO_EXTENSION`` is set.
    """
    global _CYTHON_OK
    if os.environ.get(NO_EXTENSION_ENV_VAR):
        return False
    if _CYTHON_OK is None:
        try:
            from . import _ckernel  # noqa: F401

            _CYTHON_OK = True
        except ImportError:  # pragma: no cover - exercised via stubbing
            _CYTHON_OK = False
    return _CYTHON_OK


def available_backends() -> Tuple[str, ...]:
    """The backend names usable in this process, scalar kernel first."""
    names = ["python"]
    if numpy_available():
        names.append("numpy")
    if cython_available():
        names.append("cython")
    return tuple(names)


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a backend request to a concrete backend name.

    ``backend`` is the explicit argument (wins when given); ``None``
    defers to ``REPRO_KERNEL_BACKEND``, and an unset/``auto`` selection
    auto-detects.  Returns ``"python"``, ``"numpy"`` or ``"cython"``.
    """
    source = "backend argument"
    choice = backend
    if choice is None:
        choice = os.environ.get(BACKEND_ENV_VAR) or "auto"
        source = f"{BACKEND_ENV_VAR} environment variable"
    choice = choice.strip().lower()
    if choice == "auto":
        if cython_available():
            return "cython"
        return "numpy" if numpy_available() else "python"
    if choice not in KERNEL_BACKENDS:
        names = ", ".join(KERNEL_BACKENDS + ("auto",))
        raise KernelBackendError(
            f"unknown kernel backend {choice!r} (from {source}); "
            f"pick from {names}"
        )
    if choice == "numpy" and not numpy_available():
        raise KernelBackendError(
            f"kernel backend 'numpy' requested via {source} "
            "but numpy is not importable in this environment"
        )
    if choice == "cython" and not cython_available():
        raise KernelBackendError(
            f"kernel backend 'cython' requested via {source} but the "
            "compiled extension is not built in this environment; "
            "build it with `pip install .` (needs a C compiler) or "
            "`python setup.py build_ext --inplace` for a source tree"
        )
    return choice


def make_analyzer(
    mapping,
    backend: Optional[str] = None,
    elide_local_comm: bool = False,
    merge_same_pe_buffers: bool = False,
):
    """A ``ReferenceAnalyzer`` over ``mapping`` for ``backend="reference"``,
    else a ``DeltaAnalyzer`` on the kernel :func:`resolve_backend` picks
    (imported lazily: both engines import this module)."""
    if backend == REFERENCE_BACKEND:
        from .reference import ReferenceAnalyzer

        return ReferenceAnalyzer(mapping, elide_local_comm, merge_same_pe_buffers)
    from .delta import DeltaAnalyzer

    return DeltaAnalyzer(mapping, elide_local_comm, merge_same_pe_buffers, backend)
