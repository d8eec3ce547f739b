"""Tests for the declarative sweep layer: grids, resolution, digests."""

import pytest

from repro.api import RunSpec, get_scenario, scenario_names
from repro.errors import ConfigurationError
from repro.sweep import (
    GridSpec,
    SweepSpec,
    apply_overrides,
    expand_replicates,
    point_digest,
    resolve_point,
    sweep_from_dict,
    sweep_from_grid,
)
from repro.sweep.spec import point_seed


# ------------------------------------------------------------------ grids


def test_grid_expands_row_major():
    grid = GridSpec({"a": (1, 2), "b": ("x", "y", "z")})
    combos = grid.combinations()
    assert len(grid) == 6 and len(combos) == 6
    assert combos[0] == {"a": 1, "b": "x"}
    assert combos[1] == {"a": 1, "b": "y"}
    assert combos[3] == {"a": 2, "b": "x"}
    assert grid.axis_names == ("a", "b")


def test_grid_rejects_empty_axis_and_duplicates():
    with pytest.raises(ConfigurationError):
        GridSpec({"a": ()})
    with pytest.raises(ConfigurationError):
        GridSpec((("a", (1,)), ("a", (2,))))


def test_point_spec_validation():
    """A sweep point is a RunSpec: it validates on construction."""
    with pytest.raises(ConfigurationError):
        RunSpec(system="martian")
    with pytest.raises(ConfigurationError):
        RunSpec(duration=0.0)
    with pytest.raises(ConfigurationError):
        RunSpec(duration=1.0, warmup=1.0)  # warm-up must end before the run
    sweep = SweepSpec(name="s", points=(RunSpec(duration=1.0, warmup=0.5),))
    assert sweep.points[0].seed is None  # unpinned until the sweep derives it


def test_sweep_spec_validation():
    with pytest.raises(ConfigurationError):
        SweepSpec(name="", points=(RunSpec(),))
    with pytest.raises(ConfigurationError):
        SweepSpec(name="empty", points=())
    with pytest.raises(ConfigurationError):
        SweepSpec(name="s", points=(RunSpec(base="nope"),))


# ------------------------------------------------------------------ resolution


def _sweep(**kwargs):
    point = RunSpec(
        labels={"batch_size": 5},
        overrides={"protocol.batch_size": 5},
        duration=0.5,
        warmup=0.1,
        **kwargs,
    )
    return SweepSpec(name="unit", points=(point,)), point


def test_resolution_pins_every_config_field():
    sweep, point = _sweep()
    resolved = resolve_point(sweep, point)
    assert resolved["config"]["batch_size"] == 5
    # The base "scale" deployment fills in the remaining fields.
    assert resolved["config"]["shim_nodes"] == 4
    assert resolved["workload"]["num_records"] == 5_000
    assert resolved["duration"] == 0.5
    # The derived per-point seed is materialised into both configs.
    assert resolved["config"]["seed"] == point_seed(sweep, point)
    assert resolved["workload"]["seed"] != resolved["config"]["seed"]


def test_point_seed_is_stable_and_label_dependent():
    sweep, point = _sweep()
    assert point_seed(sweep, point) == point_seed(sweep, point)
    other = RunSpec(labels={"batch_size": 6}, overrides={"batch_size": 6})
    assert point_seed(sweep, point) != point_seed(sweep, other)
    pinned = RunSpec(labels={"batch_size": 5}, seed=77)
    assert point_seed(sweep, pinned) == 77


def test_digest_stable_and_covers_only_simulated_knobs():
    sweep, point = _sweep()
    resolved = resolve_point(sweep, point)
    digest_one = point_digest(resolved)
    digest_two = point_digest(resolve_point(sweep, point))
    assert digest_one == digest_two
    # Labels themselves never enter the address (seed already materialised).
    relabelled = dict(resolved, labels={"renamed": True})
    assert point_digest(relabelled) == digest_one
    # Any simulated knob does change the address.
    changed = dict(resolved, duration=0.6)
    assert point_digest(changed) != digest_one


def test_relabelling_shares_cache_only_with_pinned_seeds():
    # Pinned seed: labels are pure presentation, the address is unchanged.
    pinned_a = RunSpec(labels={"batch_size": 5}, overrides={"batch_size": 5}, seed=7)
    pinned_b = RunSpec(labels={"bs": 5}, overrides={"batch_size": 5}, seed=7)
    sweep = SweepSpec(name="unit", points=(pinned_a, pinned_b))
    assert point_digest(resolve_point(sweep, pinned_a)) == point_digest(
        resolve_point(sweep, pinned_b)
    )
    # Derived seed: different labels mean a different derived seed, hence a
    # different address (independent replicates, not cache-sharing aliases).
    derived_a = RunSpec(labels={"batch_size": 5}, overrides={"batch_size": 5})
    derived_b = RunSpec(labels={"bs": 5}, overrides={"batch_size": 5})
    assert point_digest(resolve_point(sweep, derived_a)) != point_digest(
        resolve_point(sweep, derived_b)
    )


def test_digest_survives_json_round_trip():
    import json

    sweep, point = _sweep()
    resolved = resolve_point(sweep, point)
    round_tripped = json.loads(json.dumps(resolved))
    assert point_digest(round_tripped) == point_digest(resolved)


def test_scenario_overrides_sit_under_point_overrides():
    point = RunSpec(
        labels={},
        scenarios="conflict-heavy",
        overrides={"workload.conflict_fraction": 0.5},
        duration=0.5,
        warmup=0.1,
    )
    sweep = SweepSpec(name="unit", points=(point,))
    resolved = resolve_point(sweep, point)
    # The point override wins over the scenario's 0.3 default.
    assert resolved["workload"]["conflict_fraction"] == 0.5
    assert resolved["workload"]["rw_sets_known"] is False


# ------------------------------------------------------------------ replicates


def test_replicates_one_leaves_sweep_untouched():
    sweep, point = _sweep()
    assert point.replicates == 1
    # Same object back: resolution and digests are bit-identical to a world
    # where the replicates field does not exist.
    assert expand_replicates(sweep) is sweep


def test_replicates_expand_to_distinct_stable_digests():
    point = RunSpec(
        labels={"batch_size": 5},
        overrides={"batch_size": 5},
        duration=0.5,
        warmup=0.1,
        replicates=3,
    )
    sweep = SweepSpec(name="rep", points=(point,))
    expanded = expand_replicates(sweep)
    assert len(expanded) == 3
    assert [p.labels["replicate"] for p in expanded.points] == [0, 1, 2]
    assert all(p.replicates == 1 for p in expanded.points)
    digests = [point_digest(resolve_point(expanded, p)) for p in expanded.points]
    assert len(set(digests)) == 3  # N distinct per-seed content addresses
    # Expansion is deterministic: a second expansion shares every address.
    again = expand_replicates(sweep)
    assert [point_digest(resolve_point(again, p)) for p in again.points] == digests


def test_replicate_seeds_derive_from_the_point_seed_chain():
    from repro.sim.rng import derive_seed

    sweep, point = _sweep()
    replicated = apply_overrides(sweep, {"replicates": 2})
    expanded = expand_replicates(replicated)
    base = point_seed(sweep, point)
    assert [p.seed for p in expanded.points] == [
        derive_seed(base, "replicate", 0),
        derive_seed(base, "replicate", 1),
    ]


def test_replicates_validation():
    with pytest.raises(ConfigurationError):
        RunSpec(replicates=0)
    with pytest.raises(ConfigurationError):
        apply_overrides(SweepSpec(name="s", points=(RunSpec(),)), {"replicates": 0})


def test_replicates_route_as_a_run_field():
    sweep = sweep_from_grid(
        name="rep-axis",
        grid=GridSpec({"batch_size": (5,), "replicates": (2,)}),
        duration=0.5,
        warmup=0.1,
    )
    assert sweep.points[0].replicates == 2
    assert len(expand_replicates(sweep)) == 2


# ------------------------------------------------------------------ seed-label hygiene


def test_derive_seed_slash_collision_is_documented():
    """Regression: derive_seed joins labels with '/' and no escaping.

    ``("a/b",)`` and ``("a", "b")`` therefore collide — this is why spec
    validation rejects ``/`` in the components that reach seed derivation
    (changing the derivation itself would invalidate every
    content-addressed store, so the guard is the fix).
    """
    from repro.sim.rng import derive_seed

    assert derive_seed(1, "a/b") == derive_seed(1, "a", "b")
    assert derive_seed(1, "a/b", "c") == derive_seed(1, "a", "b/c")


def test_scenario_names_with_slash_are_rejected():
    from repro.api.spec import normalize_scenarios
    from repro.api import Scenario, register_scenario

    with pytest.raises(ConfigurationError, match="must not contain '/'"):
        register_scenario(Scenario(name="outage/us-east", description="bad"))
    with pytest.raises(ConfigurationError, match="must not contain '/'"):
        normalize_scenarios("a/b")
    with pytest.raises(ConfigurationError, match="must not contain '/'"):
        RunSpec(scenarios=["baseline", "x/y"])
    with pytest.raises(ConfigurationError, match="must not contain '/'"):
        RunSpec(scenarios=["x/y"])


# ------------------------------------------------------------------ scenarios


def test_scenario_registry_contents():
    names = scenario_names()
    for expected in (
        "baseline",
        "region-outage",
        "network-partition",
        "byzantine-executors",
        "skewed-ycsb",
    ):
        assert expected in names
    with pytest.raises(ConfigurationError):
        get_scenario("not-a-scenario")


# ------------------------------------------------------------------ grid -> sweep


def test_sweep_from_grid_routes_axes():
    sweep = sweep_from_grid(
        name="routing",
        grid=GridSpec(
            {
                "batch_size": (5, 10),
                "write_fraction": (0.5,),
                "scenario": ("baseline", "lossy-network"),
            }
        ),
        duration=0.5,
        warmup=0.1,
    )
    assert len(sweep) == 4
    first = sweep.points[0]
    assert first.overrides == {
        "protocol.batch_size": 5,
        "workload.write_fraction": 0.5,
    }
    assert {point.scenarios for point in sweep.points} == {
        ("baseline",),
        ("lossy-network",),
    }


def test_workload_seed_constant_never_seeds_the_protocol():
    """Grid constants are written ``protocol.`` / ``workload.``: a workload
    seed stays the workload's and the point seed is still derived."""
    sweep = sweep_from_grid(
        name="workload-seed", grid=GridSpec({"batch_size": (5,)}), workload={"seed": 3}
    )
    point = sweep.points[0]
    resolved = resolve_point(sweep, point)
    assert point.overrides["workload.seed"] == 3
    assert resolved["workload"]["seed"] == 3
    assert resolved["config"]["seed"] == point_seed(sweep, point) != 3


def test_set_overrides_win_over_the_points_own_values():
    """``--set`` beats the point's value for the same field, however either
    is spelled, and ``scenario`` / ``scenarios`` both land in ``scenarios``."""
    bare = RunSpec(overrides={"batch_size": 5, "write_fraction": 0.5})
    prefixed = RunSpec(
        overrides={"protocol.batch_size": 5, "workload.write_fraction": 0.5}
    )
    sweep = SweepSpec(name="set", points=(bare, prefixed))
    for overrides in (
        {"batch_size": 9, "write_fraction": 0.9},
        {"protocol.batch_size": 9, "workload.write_fraction": 0.9},
        {"config.batch_size": 9, "workload.write_fraction": 0.9},
    ):
        applied = apply_overrides(sweep, overrides)
        for point in applied.points:
            resolved = resolve_point(applied, point)
            assert resolved["config"]["batch_size"] == 9
            assert resolved["workload"]["write_fraction"] == 0.9
    for key in ("scenario", "scenarios"):
        applied = apply_overrides(sweep, {key: ["region-outage", "skewed-ycsb"]})
        assert {point.scenarios for point in applied.points} == {
            ("region-outage", "skewed-ycsb")
        }


def test_sweep_from_grid_rejects_unknown_axis_and_shadowed_constant():
    with pytest.raises(ConfigurationError):
        sweep_from_grid(name="bad", grid=GridSpec({"warp_factor": (9,)}))
    with pytest.raises(ConfigurationError):
        sweep_from_grid(
            name="bad",
            grid=GridSpec({"batch_size": (5,)}),
            config={"batch_size": 10},
        )


def test_sweep_from_dict():
    sweep = sweep_from_dict(
        {
            "name": "filed",
            "seed": 9,
            "duration": 0.5,
            "warmup": 0.1,
            "grid": {"num_executors": [3, 5]},
            "config": {"crypto_backend": "fast"},
        }
    )
    assert sweep.name == "filed" and sweep.seed == 9 and len(sweep) == 2
    assert sweep.points[0].overrides["protocol.crypto_backend"] == "fast"
    with pytest.raises(ConfigurationError):
        sweep_from_dict({"name": "no-grid"})
    with pytest.raises(ConfigurationError):
        sweep_from_dict({"grid": {"batch_size": [5]}})
