"""Kernel chooser: compiled fast path vs authoritative pure Python.

The repo's two measured hot floors — ``execute_batch`` and uniform YCSB
transaction generation — each have two implementations: the authoritative
pure-Python one, and an optional hand-written C extension
(:mod:`repro._ckernel._impl`).  (Canonical strings, canonical bytes and
digests are not a kernel floor: :mod:`repro.workload.transactions` and
:mod:`repro.crypto.hashing` are their one implementation under every
``REPRO_KERNEL`` value.)  This module is the single place that decides which
one runs:

* ``REPRO_KERNEL=py``    — force pure Python (what ``perf-smoke`` gates).
* ``REPRO_KERNEL=c``     — require the compiled kernel; raise
  :class:`~repro.errors.KernelUnavailableError` if it cannot be used.
* ``REPRO_KERNEL=auto``  — (default, also when unset) use the compiled
  kernel when importable *and* its ``BUILD_TAG`` matches
  :data:`KERNEL_BUILD_TAG`; otherwise warn once and fall back.

Lint rule KER006 enforces that no other module imports ``repro._ckernel``
directly — every compiled-path call-site routes through here, so the
fallback contract (bit-identical results, pure Python always available)
holds everywhere by construction.

The decision is made once, at first import.  Changing ``REPRO_KERNEL``
afterwards has no effect on the running process; tests that need both
variants run subprocesses (see ``tests/test_kernel.py``).
"""

from __future__ import annotations

import os
import warnings
from typing import Any, Optional

from repro.errors import KernelUnavailableError

#: Calling-convention tag; must equal ``_impl.BUILD_TAG`` or the extension
#: is treated as absent (stale .so from an older checkout).  Bump both in
#: lockstep whenever the C API between chooser and extension changes.
KERNEL_BUILD_TAG = "repro-ckernel-5"

#: The compiled module when active, else ``None``.  Consumers must treat
#: this as opaque and call :func:`configure_types` etc. through this module.
_impl: Optional[Any] = None

#: Why the compiled kernel is inactive ("" when it is active).
_inactive_reason: str = ""


def _load_compiled() -> "tuple[Optional[Any], str]":
    """Try to import and validate the extension.

    Returns ``(module, "")`` on success or ``(None, reason)`` on failure —
    the caller decides whether the failure warns (auto) or raises (c).
    """
    try:
        from repro._ckernel import _impl as compiled
    except ImportError as exc:
        return None, f"extension not importable ({exc})"
    build_tag = getattr(compiled, "BUILD_TAG", None)
    if build_tag != KERNEL_BUILD_TAG:
        return None, (
            f"build-tag mismatch (extension has {build_tag!r}, "
            f"chooser expects {KERNEL_BUILD_TAG!r}; rebuild with "
            f"'python setup.py build_ext --inplace')"
        )
    return compiled, ""


def _choose() -> "tuple[Optional[Any], str]":
    mode = os.environ.get("REPRO_KERNEL", "auto").strip().lower() or "auto"
    if mode == "py":
        return None, "REPRO_KERNEL=py requested the pure-Python kernel"
    if mode not in ("c", "auto"):
        raise KernelUnavailableError(
            f"REPRO_KERNEL={mode!r} is not a valid kernel mode "
            "(expected 'c', 'py', or 'auto')"
        )
    compiled, reason = _load_compiled()
    if compiled is not None:
        return compiled, ""
    if mode == "c":
        raise KernelUnavailableError(
            f"REPRO_KERNEL=c but the compiled kernel is unavailable: {reason}"
        )
    warnings.warn(
        f"compiled kernel unavailable, falling back to pure Python: {reason}",
        RuntimeWarning,
        stacklevel=2,
    )
    return None, reason


_impl, _inactive_reason = _choose()


def active_variant() -> str:
    """``"c"`` when the compiled kernel is serving the hot floors, else ``"py"``."""
    return "c" if _impl is not None else "py"


def inactive_reason() -> str:
    """Why the compiled kernel is off (empty string when it is on)."""
    return _inactive_reason


def compiled_available() -> bool:
    """Whether a usable (importable, tag-matching) extension exists at all."""
    return _load_compiled()[0] is not None


# --------------------------------------------------------------------------
# Configuration relay.  ``workload/transactions.py`` calls it at its own
# import time; it is a no-op on the pure-Python path so the call-site needs
# no variant check.

def configure_types(operation: type, transaction: type) -> None:
    """Register the workload types the C kernel constructs directly."""
    if _impl is not None:
        _impl.configure_types(operation, transaction)


# --------------------------------------------------------------------------
# Hot-floor entry points.  Each returns the compiled callable when active,
# else ``None`` — consumers bind their pure-Python implementation in that
# case, so the dispatch happens once at import, not per call.

def c_execute_batch() -> Optional[Any]:
    """``(batch_id, txns, read_values, read_versions) -> result_digest``."""
    return getattr(_impl, "execute_batch", None)


def c_generate_transactions() -> Optional[Any]:
    """``(workload, count, offset, origin, request_id, draw_client) -> tuple``.

    Uniform workloads only (``workload._uniform_only``); any other raises
    ``ValueError`` rather than draw differently from the Python loop.
    """
    return getattr(_impl, "generate_transactions", None)
