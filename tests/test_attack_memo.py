"""Per-layout derived data: memoised FEOL views, candidate sets and
recovered netlists.

Each attack cell pays only for its attack: a layout splits once per
layer, a view builds its candidate set once per argument pair, and a
result's netlist is rebuilt only when something reads it.  Every memo
must equal a fresh build and stay out of pickles.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys

import numpy as np
import pytest

import repro.attacks.result as result_module
from repro.adversary.evaluate import run_scenario
from repro.adversary.features import build_candidates
from repro.adversary.scenario import SCENARIOS
from repro.attacks.postprocess import reconnect_key_gates_to_ties
from repro.attacks.random_guess import random_guess_attack
from repro.attacks.result import rebuild_netlist
from repro.locking import AtpgLockConfig, atpg_lock
from repro.phys import build_locked_layout
from repro.phys.geometry import stub_arrays
from repro.phys.split import FeolView, split_layout
from repro.runner.worker import WorkerRuntime
from tests.conftest import build_random_circuit


@pytest.fixture(scope="module")
def design():
    circuit = build_random_circuit(
        41, num_inputs=10, num_gates=140, num_outputs=6
    )
    locked, _ = atpg_lock(
        circuit, AtpgLockConfig(key_bits=10, seed=3, run_lec=False)
    )
    return circuit, locked


@pytest.fixture
def layout(design):
    """A fresh layout per test: views memoised by one test stay there."""
    _, locked = design
    return build_locked_layout(locked, split_layer=4, seed=1)


def _assert_views_equal(got: FeolView, want: FeolView) -> None:
    for field in dataclasses.fields(FeolView):
        assert getattr(got, field.name) == getattr(want, field.name)
    got_arrays, want_arrays = stub_arrays(got), stub_arrays(want)
    for field in dataclasses.fields(got_arrays):
        a = getattr(got_arrays, field.name)
        b = getattr(want_arrays, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def _assert_candidates_equal(got, want) -> None:
    assert got.sinks == want.sinks
    assert got.sources == want.sources
    assert got.per_sink == want.per_sink
    assert got.span == want.span
    assert got._net_of_source == want._net_of_source
    for name in ("pairs", "features", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b), name


# ----------------------------------------------------------------------
# One FEOL view per layout and split layer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("layer", [4, 6])
def test_memoised_view_equals_a_fresh_split(layout, layer):
    view = layout.feol_view(layer)
    assert layout.feol_view(layer) is view
    fresh = split_layout(
        layout.circuit, layout.routing, layer, layout.key_nets
    )
    _assert_views_equal(view, fresh)


def test_each_split_layer_gets_its_own_view(layout):
    default = layout.feol_view()
    view4, view6 = layout.feol_view(4), layout.feol_view(6)
    assert default is view4
    assert view6 is not view4
    assert (view4.split_layer, view6.split_layer) == (4, 6)


def test_layout_pickle_is_unchanged_by_views(layout):
    before = pickle.dumps(layout)
    build_candidates(layout.feol_view(4))
    layout.feol_view(6)
    assert pickle.dumps(layout) == before
    restored = pickle.loads(before)
    assert "_views" not in vars(restored)
    _assert_views_equal(restored.feol_view(4), layout.feol_view(4))


def test_worker_tier_sizes_a_viewed_layout_like_a_fresh_one(design, layout):
    fresh = build_locked_layout(design[1], split_layer=4, seed=1)
    build_candidates(layout.feol_view(4))
    sizes = []
    for value in (fresh, layout):
        runtime = WorkerRuntime(budget_bytes=1 << 30)
        runtime.put("layout", "key", value)
        sizes.append(runtime.resident_bytes)
    assert sizes[0] == sizes[1] > 0


# ----------------------------------------------------------------------
# One candidate set per view
# ----------------------------------------------------------------------
def test_build_candidates_is_memoised_per_arguments(layout):
    view = layout.feol_view()
    first = build_candidates(view, per_sink=16)
    assert build_candidates(view, per_sink=16) is first
    assert build_candidates(view, per_sink=12) is not first
    labelled = build_candidates(view, per_sink=16, with_labels=True)
    assert labelled is not first and first.labels is None
    assert labelled.labels is not None
    with pytest.raises(ValueError):  # shared, so read-only
        first.features[0, 0] = 1.0


def test_build_candidates_rebuilds_after_stub_reassignment(layout):
    view = layout.feol_view()
    first = build_candidates(view, with_labels=True)
    view.sink_stubs = list(view.sink_stubs)  # defense-style reassignment
    rebuilt = build_candidates(view, with_labels=True)
    assert rebuilt is not first
    fresh = split_layout(
        layout.circuit, layout.routing, 4, layout.key_nets
    )
    _assert_candidates_equal(
        rebuilt, build_candidates(fresh, with_labels=True)
    )
    _assert_candidates_equal(rebuilt, first)


def test_pickled_view_carries_no_candidates(layout):
    view = layout.feol_view()
    build_candidates(view)
    assert "_candidates" in vars(view)
    restored = pickle.loads(pickle.dumps(view))
    assert "_candidates" not in vars(restored)
    assert "_stub_arrays" not in vars(restored)
    assert restored.sink_stubs == view.sink_stubs


# ----------------------------------------------------------------------
# Recovered netlists on demand
# ----------------------------------------------------------------------
@pytest.fixture
def rebuilds(monkeypatch):
    """Names of the netlists ``rebuild_netlist`` builds, at every site
    that holds the function (so an eager call by any engine counts)."""
    calls = []
    real = result_module.rebuild_netlist

    def spy(*args):
        calls.append(args[2])
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and vars(module).get(
            "rebuild_netlist"
        ) is real:
            monkeypatch.setattr(module, "rebuild_netlist", spy)
    return calls


def test_recovered_is_built_on_read_and_equals_an_eager_rebuild(
    layout, rebuilds
):
    view = layout.feol_view()
    calls = rebuilds
    result = random_guess_attack(view, seed=3)
    assert calls == []
    recovered = result.recovered
    assert result.recovered is recovered  # kept once built
    assert calls == [f"{view.circuit_name}_randomguess"]
    eager = rebuild_netlist(view, result.assignment, recovered.name)
    assert recovered.name == eager.name
    assert list(recovered.gates.items()) == list(eager.gates.items())
    assert recovered.outputs == eager.outputs


def test_derived_keeps_or_renames_the_netlist(layout):
    view = layout.feol_view()
    base = random_guess_attack(view, seed=5)
    renamed = base.derived(netlist_name="renamed")
    kept = base.derived()
    for follow_up, name in ((renamed, "renamed"), (kept, base.netlist_name)):
        assert follow_up.recovered.name == name
        assert follow_up.recovered.gates == base.recovered.gates
        assert follow_up.recovered.outputs == base.recovered.outputs
    improved = reconnect_key_gates_to_ties(base, seed=13)
    eager = rebuild_netlist(view, improved.assignment, improved.netlist_name)
    assert improved.recovered.gates == eager.gates


@pytest.mark.parametrize("name", ["proximity", "netflow", "random"])
def test_post_processed_cell_rebuilds_one_netlist(
    design, layout, rebuilds, name
):
    circuit, locked = design
    scenario = SCENARIOS[name].resolve()
    assert scenario.postprocess
    outcome = run_scenario(
        scenario,
        layout.feol_view(),
        locked,
        circuit,
        benchmark="memo",
        split_layer=4,
        hd_patterns=64,
    )
    assert outcome.hd_oer is not None
    assert rebuilds == [f"{layout.circuit.name}_recovered_pp"]
