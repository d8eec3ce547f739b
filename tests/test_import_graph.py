"""What each entry point imports: the simulator loads only where it runs.

Specs, sweeps' spec layer, stores, reports, obs files and the linter are
data; they import no deployment, no consensus engine, no serverless cloud
and no kernel chooser.  The simulator loads at a deployment's first build,
or once in the parent before a worker pool forks.  Every check runs in a
fresh interpreter, since this process has long imported everything.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from tests.test_kernel import _BLOCK_EXTENSION, _SRC, _run_py

#: Modules only a simulating process needs.
_SIMULATOR = (
    "repro.core.runner",
    "repro.consensus.pbft",
    "repro.cloud.lambda_cloud",
    "repro.baselines.pbft_replicated",
)

#: Modules the scenario factories import when they run, at a deployment's build.
_FAULT_MACHINERY = (
    "repro.sim.engine",
    "repro.sim.network",
    "repro.faults.byzantine",
    "repro.faults.injector",
)

#: ``repro.*`` modules that ``import repro.api, repro.sweep`` may load: 41
#: today.  The simulator stack alone adds ~30, so creeping back past this
#: ceiling means a spec-side module imports a deployment again.
_API_SWEEP_MODULE_CEILING = 44


def _loaded(imports: str, watch=_SIMULATOR + ("repro.kernel",)) -> dict:
    """Import ``imports`` in a fresh interpreter; report what it loaded."""
    proc = _run_py(
        f"""
        import json, sys
        import {imports}
        print(json.dumps({{
            "watched": [name for name in {list(watch)!r} if name in sys.modules],
            "repro_modules": sum(name.startswith("repro") for name in sys.modules),
        }}))
        """
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("package", ["repro.lint", "repro.store", "repro.report", "repro.obs"])
def test_data_side_packages_import_no_simulator_and_no_kernel(package):
    assert _loaded(package)["watched"] == []


def test_api_and_sweep_import_no_deployment():
    loaded = _loaded("repro.api, repro.sweep", watch=_SIMULATOR + _FAULT_MACHINERY)
    assert loaded["watched"] == []
    assert loaded["repro_modules"] <= _API_SWEEP_MODULE_CEILING, loaded


@pytest.mark.parametrize(
    "system, module, absent",
    [
        ("serverless_bft", "repro.core.runner", "repro.baselines.pbft_replicated"),
        ("pbft_replicated", "repro.baselines.pbft_replicated", None),
    ],
)
def test_building_a_system_loads_its_deployment_module(system, module, absent):
    proc = _run_py(
        f"""
        import sys
        from repro.api import build_system
        from repro.core.config import ProtocolConfig
        assert {module!r} not in sys.modules
        build_system({system!r}, ProtocolConfig(num_clients=8, client_groups=2))
        assert {module!r} in sys.modules
        assert {absent!r} not in sys.modules
        """,
        REPRO_KERNEL="py",
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="needs fork-start workers"
)
def test_a_shared_pool_is_warmed_in_the_parent_before_it_forks():
    # After the pool exists, a meta-path hook records every ``repro`` module
    # that still has to be found.  Forked workers inherit it, so a task sees
    # what its worker imported after the fork: nothing.
    proc = _run_py(
        """
        import sys
        from repro.sweep.pool import discard_shared_pool, get_shared_pool

        found = []

        class _Record:
            def find_spec(self, name, path=None, target=None):
                if name.startswith("repro"):
                    found.append(name)
                return None

        def _task():
            return found, "repro.core.runner" in sys.modules

        assert "repro.core.runner" not in sys.modules
        pool = get_shared_pool(2)
        assert "repro.core.runner" in sys.modules
        assert "repro.baselines.pbft_replicated" in sys.modules
        assert "repro.faults.injector" in sys.modules
        sys.meta_path.insert(0, _Record())
        assert pool.submit(_task).result(timeout=120) == ([], True)
        discard_shared_pool()
        """,
        REPRO_KERNEL="py",
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["repro.lint", "check", _SRC],
        ["repro.lint", "rules"],
        ["repro.store", "--help"],
        ["repro.sweep", "list"],
        ["repro.sweep", "scenarios"],
        ["repro.sweep", "list-systems"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
@pytest.mark.parametrize("mode", ["c", "auto"])
def test_commands_that_never_simulate_ignore_a_missing_kernel(argv, mode):
    # REPRO_KERNEL=c without the extension fails only where the kernel runs;
    # under auto these commands do not print its fall-back warning either.
    proc = _run_py(
        _BLOCK_EXTENSION
        + f"""
import runpy, warnings
warnings.simplefilter("error", RuntimeWarning)
sys.argv = {argv!r}
try:
    runpy.run_module({argv[0]!r}, run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
assert "repro.kernel" not in sys.modules
""",
        REPRO_KERNEL=mode,
    )
    assert proc.returncode == 0, proc.stderr


def test_building_under_c_without_the_extension_still_raises():
    proc = _run_py(
        _BLOCK_EXTENSION
        + """
from repro.api import build_system
from repro.core.config import ProtocolConfig
from repro.errors import KernelUnavailableError
try:
    build_system("serverless_bft", ProtocolConfig(num_clients=8, client_groups=2))
except KernelUnavailableError as exc:
    assert "unavailable" in str(exc)
else:
    raise AssertionError("REPRO_KERNEL=c built a deployment without the extension")
""",
        REPRO_KERNEL="c",
    )
    assert proc.returncode == 0, proc.stderr
