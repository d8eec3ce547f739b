"""Compiled-kernel gate: chooser semantics and C-vs-Python bit identity.

The pure-Python implementations of the hot floors (batch execution, YCSB
generation, transaction/batch canonical strings) stay authoritative; the
compiled kernel is only allowed to exist because every observable it
produces — digests, canonical strings, RNG draw sequences, end-to-end result
digests — is bit-identical.  These tests are that gate.

Tests that need the extension *importable* are marked ``needs_compiled``
(they drive subprocesses with their own ``REPRO_KERNEL``); tests that need
the C path *active in this process* are marked ``needs_active_c`` and skip
under ``REPRO_KERNEL=py`` or when the extension was never built — CI's
``kernel-smoke`` job runs them with the extension in place, and the plain
tier-1 lane proves everything else passes without it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro import kernel
from repro.errors import KernelUnavailableError

needs_compiled = pytest.mark.skipif(
    not kernel.compiled_available(),
    reason="compiled kernel extension not built (python setup.py build_ext --inplace)",
)
needs_active_c = pytest.mark.skipif(
    kernel.active_variant() != "c",
    reason="compiled kernel not active in this process",
)

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_py(code: str, **env_overrides: str) -> "subprocess.CompletedProcess":
    """Run a snippet in a fresh interpreter with ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


# ---------------------------------------------------------------- chooser


def test_env_py_forces_pure_python():
    proc = _run_py(
        """
        from repro import kernel
        assert kernel.active_variant() == "py"
        assert "REPRO_KERNEL=py" in kernel.inactive_reason()
        """,
        REPRO_KERNEL="py",
    )
    assert proc.returncode == 0, proc.stderr


def test_env_invalid_mode_raises():
    proc = _run_py(
        """
        try:
            from repro import kernel
        except Exception as exc:
            assert type(exc).__name__ == "KernelUnavailableError", exc
            assert "bogus" in str(exc)
        else:
            raise AssertionError("invalid REPRO_KERNEL mode was accepted")
        """,
        REPRO_KERNEL="bogus",
    )
    assert proc.returncode == 0, proc.stderr


#: Meta-path hook that makes the extension unimportable in a subprocess, so
#: the missing-.so fallback is testable even on machines that built it.
_BLOCK_EXTENSION = """
import sys
class _Block:
    def find_spec(self, name, path=None, target=None):
        if name == "repro._ckernel._impl":
            raise ImportError("blocked for test")
        return None
sys.meta_path.insert(0, _Block())
"""


def test_auto_missing_extension_warns_and_falls_back():
    proc = _run_py(
        _BLOCK_EXTENSION
        + textwrap.dedent("""
        import warnings
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            from repro import kernel
        assert kernel.active_variant() == "py"
        assert "blocked for test" in kernel.inactive_reason()
        fallback = [w for w in caught if "falling back to pure Python" in str(w.message)]
        assert len(fallback) == 1, [str(w.message) for w in caught]
        assert issubclass(fallback[0].category, RuntimeWarning)
        # The simulator still runs end to end on the fallback path.
        from repro.api import RunSpec, run
        result = run(RunSpec(duration=0.2, warmup=0.05, seed=3))
        assert result.events_processed > 0
        """),
        REPRO_KERNEL="auto",
    )
    assert proc.returncode == 0, proc.stderr


def test_c_mode_missing_extension_raises():
    proc = _run_py(
        _BLOCK_EXTENSION
        + textwrap.dedent("""
        try:
            from repro import kernel
        except Exception as exc:
            assert type(exc).__name__ == "KernelUnavailableError", exc
            assert "unavailable" in str(exc)
        else:
            raise AssertionError("REPRO_KERNEL=c succeeded without the extension")
        """),
        REPRO_KERNEL="c",
    )
    assert proc.returncode == 0, proc.stderr


@needs_compiled
def test_build_tag_mismatch_treated_as_absent(monkeypatch):
    extension_tag = kernel._load_compiled()[0].BUILD_TAG
    monkeypatch.setattr(kernel, "KERNEL_BUILD_TAG", "repro-ckernel-from-the-future")
    compiled, reason = kernel._load_compiled()
    assert compiled is None
    assert "build-tag mismatch" in reason
    assert extension_tag in reason  # the extension's actual tag is named
    assert not kernel.compiled_available()


@needs_compiled
def test_c_mode_activates_compiled_kernel():
    proc = _run_py(
        """
        from repro import kernel
        assert kernel.active_variant() == "c"
        assert kernel.inactive_reason() == ""
        assert kernel.c_execute_batch() is not None
        assert kernel.c_generate_transactions() is not None
        """,
        REPRO_KERNEL="c",
    )
    assert proc.returncode == 0, proc.stderr


@needs_compiled
def test_exported_surface_is_pinned_and_consumed():
    """A C entry point cannot exist without a consumer behind the chooser."""
    proc = _run_py(
        """
        from repro import kernel
        impl = kernel._impl
        public = {name for name in dir(impl) if not name.startswith("_")}
        assert public == {
            "BUILD_TAG", "configure_types", "execute_batch",
            "generate_transactions", "transaction_canonical", "batch_canonical",
        }, sorted(public)
        for name in public - {"BUILD_TAG", "configure_types"}:
            assert getattr(kernel, "c_" + name)() is getattr(impl, name), name
        # configure_types is relayed, not handed out: the relay must reach C.
        try:
            kernel.configure_types(int, int, int)
        except TypeError as exc:
            assert "tuple subclass" in str(exc)
        else:
            raise AssertionError("configure_types relay did not reach the extension")
        """,
        REPRO_KERNEL="c",
    )
    assert proc.returncode == 0, proc.stderr


def test_chooser_relays_are_noops_on_python_path():
    # Regardless of the active variant, the c_* accessors agree with it.
    active = kernel.active_variant()
    assert active in ("c", "py")
    have_callables = kernel.c_execute_batch() is not None
    assert have_callables == (active == "c")


# ------------------------------------------------- floor 1: execute_batch


def _zip_config(**overrides):
    from repro.workload.ycsb import YCSBConfig

    params = dict(num_records=400, clients=6, conflict_fraction=0.3, zipfian_theta=0.9)
    params.update(overrides)
    return YCSBConfig(**params)


@needs_active_c
def test_execute_batch_ab_identity():
    from repro.workload import transactions as T
    from repro.workload.transactions import TransactionBatch
    from repro.workload.ycsb import YCSBWorkload

    wl_c = YCSBWorkload(_zip_config())
    wl_p = YCSBWorkload(_zip_config())
    wl_p._c_generate = None  # pure-Python generation for the B side
    txns_c = wl_c.next_transactions(40, client_index_offset=2, origin="o", request_id="r")
    txns_p = wl_p.next_transactions(40, client_index_offset=2, origin="o", request_id="r")

    read_values = {f"user{i}": f"val-{i}" for i in range(0, 400, 3)}
    read_versions = {f"user{i}": i % 7 for i in range(0, 400, 2)}
    res_c = T._execute_batch_c(
        TransactionBatch(batch_id="b-1", transactions=txns_c),
        dict(read_values),
        dict(read_versions),
    )
    res_p = T._execute_batch_py(
        TransactionBatch(batch_id="b-1", transactions=txns_p),
        dict(read_values),
        dict(read_versions),
    )
    assert res_c.result_digest == res_p.result_digest
    assert res_c.txn_results == res_p.txn_results
    assert res_c.canonical() == res_p.canonical()
    # The C loop memoises sorted_keys exactly as the property would.
    for txn_c, txn_p in zip(txns_c, txns_p):
        memo = txn_c.__dict__.get("_sorted_keys")
        assert isinstance(memo, tuple)
        assert memo == txn_p.sorted_keys


@needs_active_c
def test_execute_batch_exotic_mapping_falls_back():
    from collections import UserDict

    from repro.workload import transactions as T
    from repro.workload.transactions import TransactionBatch
    from repro.workload.ycsb import YCSBWorkload

    wl = YCSBWorkload(_zip_config())
    batch = TransactionBatch(batch_id="b-2", transactions=wl.next_transactions(5))
    values = UserDict({"user17": "val-17"})
    versions = UserDict({"user17": 4})
    via_c_path = T._execute_batch_c(batch, values, versions)
    direct_py = T._execute_batch_py(batch, values, versions)
    assert via_c_path.result_digest == direct_py.result_digest
    assert via_c_path.txn_results == direct_py.txn_results


@needs_active_c
def test_canonical_strings_ab_identity():
    from repro.workload import transactions as T
    from repro.workload.transactions import TransactionBatch
    from repro.workload.ycsb import YCSBWorkload

    c_txn = T._transaction_canonical
    c_batch = T._batch_canonical
    assert c_txn is not T._transaction_canonical_py

    wl = YCSBWorkload(_zip_config(execution_seconds=0.25))
    txns = wl.next_transactions(20)
    for txn in txns:
        assert c_txn(txn) == T._transaction_canonical_py(txn)
    batch = TransactionBatch(batch_id="b-3", transactions=txns)
    assert c_batch(batch) == T._batch_canonical_py(batch)
    # And the memoising public entry points agree with both.
    assert batch.canonical() == T._batch_canonical_py(batch)
    for txn in txns:
        assert txn.canonical() == T._transaction_canonical_py(txn)


# -------------------------------------------- floor 2: YCSB draw identity

_YCSB_VARIANTS = {
    "default": dict(),
    "conflicts": dict(conflict_fraction=0.4),
    "zipfian": dict(conflict_fraction=0.0, zipfian_theta=0.95),
    "conflicts-zipfian": dict(conflict_fraction=0.4, zipfian_theta=0.95),
}


@needs_active_c
@pytest.mark.parametrize("variant", sorted(_YCSB_VARIANTS))
def test_ycsb_generation_draw_identity(variant):
    """C sampler vs hoisted next_transactions vs per-call next_transaction.

    All three must be draw-for-draw identical: same transactions, same
    canonicals, and the same RNG state afterwards (checked by generating a
    second wave from each workload).
    """
    from repro.workload.ycsb import YCSBWorkload

    overrides = _YCSB_VARIANTS[variant]
    wl_c = YCSBWorkload(_zip_config(num_records=600, **overrides))
    wl_hoisted = YCSBWorkload(_zip_config(num_records=600, **overrides))
    wl_hoisted._c_generate = None
    wl_single = YCSBWorkload(_zip_config(num_records=600, **overrides))
    wl_single._c_generate = None

    for wave in range(3):
        offset = wave % 2
        from_c = wl_c.next_transactions(30, offset, origin="g", request_id=f"q{wave}")
        from_hoisted = wl_hoisted.next_transactions(30, offset, origin="g", request_id=f"q{wave}")
        from_single = tuple(
            wl_single.next_transaction(offset + slot, origin="g", request_id=f"q{wave}")
            for slot in range(30)
        )
        assert [t.canonical() for t in from_c] == [t.canonical() for t in from_hoisted]
        assert [t.canonical() for t in from_c] == [t.canonical() for t in from_single]
        assert from_c == from_hoisted == from_single
        for txn in from_c:
            assert txn.origin == "g" and txn.request_id == f"q{wave}"


@needs_active_c
def test_ycsb_next_batch_draw_identity():
    from repro.workload.ycsb import YCSBWorkload

    wl_c = YCSBWorkload(_zip_config(conflict_fraction=0.5))
    wl_p = YCSBWorkload(_zip_config(conflict_fraction=0.5))
    wl_p._c_generate = None
    for _ in range(4):
        batch_c = wl_c.next_batch(17)
        batch_p = wl_p.next_batch(17)
        assert batch_c.batch_id == batch_p.batch_id
        assert batch_c.canonical() == batch_p.canonical()
        assert batch_c.transactions == batch_p.transactions


_MEMO_SHAPES = {
    "uniform": dict(conflict_fraction=0.0, zipfian_theta=0.0),
    "conflicts": dict(conflict_fraction=0.4, zipfian_theta=0.0),
    "zipfian": dict(conflict_fraction=0.0, zipfian_theta=0.9),
    "rw-sets-unknown": dict(conflict_fraction=0.0, zipfian_theta=0.0, rw_sets_known=False),
    "execution-0.05": dict(conflict_fraction=0.0, zipfian_theta=0.0, execution_seconds=0.05),
}


@pytest.mark.parametrize("generator", ["py", pytest.param("c", marks=needs_active_c)])
@pytest.mark.parametrize("shape", sorted(_MEMO_SHAPES))
def test_generated_transactions_carry_exact_memos(shape, generator):
    """Every entry point hands out transactions whose canonical string and
    sorted keys are exactly what the transaction model would build.

    The pure-Python loop seeds both memos as it draws, so its memos are read
    straight from the instance dict: a path that skips one or builds it
    differently fails here.  The compiled loop leaves them to be built
    lazily, so only its public accessors are checked.
    """
    from repro.workload import transactions as T
    from repro.workload.ycsb import YCSBWorkload

    wl = YCSBWorkload(_zip_config(num_records=600, **_MEMO_SHAPES[shape]))
    if generator == "py":
        wl._c_generate = None
    txns = [wl.next_transaction() for _ in range(10)]
    # Indices 9 and 23 lie beyond the config's six clients.
    txns += [wl.next_transaction(index, origin="o", request_id="s") for index in (0, 5, 9, 23)]
    txns += wl.next_transactions(20, client_index_offset=4, origin="o", request_id="r")
    txns += wl.next_batch(15).transactions
    for txn in txns:
        expected_canonical = T._transaction_canonical_py(txn)
        expected_keys = tuple(sorted({op.key for op in txn.operations}))
        if generator == "py":
            assert txn.__dict__.get("_canonical") == expected_canonical
            assert txn.__dict__.get("_sorted_keys") == expected_keys
        assert txn.canonical() == expected_canonical
        assert txn.sorted_keys == expected_keys


# ---------------------------------------------------- end-to-end A/B gate

_AB_PROGRAM = """
import json, warnings
warnings.simplefilter("ignore")
from repro.api import RunSpec, run
from repro.api.facade import result_digest
from repro import kernel
from repro.crypto import hashing
from repro.perf import PERF
points = [
    ("serverless_bft", [], 7),
    ("serverless_cft", [], 7),
    ("pbft_replicated", [], 7),
    ("noshim", [], 7),
    ("serverless_bft", ["byzantine-executors"], 5),
    ("serverless_bft", ["primary-crash"], 11),
]
out = {
    "variant": kernel.active_variant(),
    "hashing_modules": sorted({
        fn.__module__
        for fn in (hashing.canonical_bytes, hashing.digest, hashing.cached_digest)
    }),
    "points": [],
}
for system, scenarios, seed in points:
    baseline = PERF.snapshot()
    r = run(RunSpec(system=system, duration=0.4, warmup=0.1, seed=seed,
                    scenarios=scenarios))
    hashed = PERF.delta_since(baseline)
    out["points"].append([system, scenarios, result_digest(r),
                          r.events_processed, r.committed_txns,
                          hashed["digests_computed"], hashed["digest_cache_hits"]])
print(json.dumps(out))
"""


@needs_compiled
def test_end_to_end_digests_bit_identical_c_vs_python():
    """The whole simulator, both kernels: result digests, event counts,
    commit counts and digest-work counters must match on all four systems
    plus a byzantine scenario and a crash fault timeline — and ``H(·)`` is
    the one Python implementation under both."""
    proc_py = _run_py(_AB_PROGRAM, REPRO_KERNEL="py")
    assert proc_py.returncode == 0, proc_py.stderr
    proc_c = _run_py(_AB_PROGRAM, REPRO_KERNEL="c")
    assert proc_c.returncode == 0, proc_c.stderr
    report_py = json.loads(proc_py.stdout)
    report_c = json.loads(proc_c.stdout)
    assert report_py["variant"] == "py"
    assert report_c["variant"] == "c"
    assert report_py["hashing_modules"] == ["repro.crypto.hashing"]
    assert report_c["hashing_modules"] == ["repro.crypto.hashing"]
    for point_py, point_c in zip(report_py["points"], report_c["points"]):
        assert point_py == point_c, f"C/python divergence at {point_py[:2]}"


# ------------------------------------------------------------ PERF counters


@needs_active_c
def test_perf_counters_attribute_work_to_compiled_kernel():
    from repro.perf import PERF
    from repro.workload.transactions import TransactionBatch, execute_batch
    from repro.workload.ycsb import YCSBWorkload

    wl = YCSBWorkload(_zip_config())
    baseline = PERF.snapshot()
    txns = wl.next_transactions(10)
    batch = TransactionBatch(batch_id="b-9", transactions=txns)
    execute_batch(batch, {"user20": "v"}, {"user20": 1})
    delta = PERF.delta_since(baseline)
    assert delta.get("ckernel_txns_generated", 0) >= 10
    assert delta.get("ckernel_batches_executed", 0) >= 1
    assert delta.get("batch_executions", 0) >= 1
