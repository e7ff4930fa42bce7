"""Recovered machines: differential tests against the string-keyed rebuild.

:func:`repro.attacks.result.recovered_machine` patches, aliases and
loop-breaks a FEOL view's index arrays; HD/OER compiles the result with
no :class:`Circuit` in between.  The oracle is the ``rebuild_netlist``
that built a :class:`Circuit` from names
(:func:`tests.test_break_cycles.reference_rebuild_netlist`).  For every
view and assignment:

* the machine's rendered :class:`Circuit` equals the oracle's gate for
  gate (names, order, ``_poalias`` and ``_loopbrk`` cells), and both
  raise alike on an unbreakable loop;
* the machine's compiled output rows equal the rows of
  ``CompiledCircuit`` over the oracle's combinational core;
* ``compute_hd_oer`` reports (and refuses) the same on both, and the
  same as the big-int oracle of ``tests/bigint_sim.py``.

The per-view table is memoised on the view; it must rebuild when a
defense reassigns the view's stubs or gates.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import random_guess_attack
from repro.attacks.result import RecoveredMachine, recovered_machine, view_table
from repro.defense.wire_lifting import concert_stubs, select_protected_nets
from repro.metrics.hd_oer import compute_hd_oer
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import INVERTED_DUAL, GateType
from repro.phys.split import FeolView, SinkStub, SourceStub, split_layout
from repro.runner.profiles import (
    attack_smoke_campaign,
    current_profile,
    defense_smoke_campaign,
)
from repro.runner.stages import cell_defense, cell_layout, locked_design
from repro.sim.compiled import CompiledCircuit
from tests.bigint_sim import reference_hd_oer
from tests.test_break_cycles import reference_rebuild_netlist

PATTERNS = 256


def _stimulus(inputs: list[str], seed: int = 0) -> dict[str, int]:
    rng = random.Random(seed)
    return {net: rng.getrandbits(PATTERNS) for net in inputs}


def assert_machine_matches_reference(
    view: FeolView, assignment: dict[int, str], original: Circuit | None = None
) -> RecoveredMachine | None:
    """The machine renders and simulates exactly like the oracle."""
    try:
        want = reference_rebuild_netlist(view, assignment, "rec")
    except RuntimeError as exc:
        with pytest.raises(RuntimeError, match=str(exc)):
            recovered_machine(view, assignment, "rec")
        return None
    machine = recovered_machine(view, assignment, "rec")
    got = machine.circuit()
    assert got.name == want.name
    assert list(got.gates.items()) == list(want.gates.items())
    assert got.outputs == want.outputs

    core = want.combinational_core()
    program = machine.compile()
    assert program.inputs == core.inputs == machine.inputs
    assert program.outputs == core.outputs
    assert [machine.table.names[i] for i in machine.outputs] == core.outputs
    reference = CompiledCircuit(core)
    assert program.level_of == reference.level_of
    assert program.num_buckets == reference.num_buckets
    stimulus = _stimulus(core.inputs)
    rows = program.output_word_arrays(stimulus, PATTERNS)
    assert np.array_equal(rows, reference.output_word_arrays(stimulus, PATTERNS))

    if original is not None:
        reports = []
        for hd_oer, recovered in (
            (compute_hd_oer, machine),
            (compute_hd_oer, want),
            (reference_hd_oer, machine),
        ):
            try:
                reports.append(hd_oer(original, recovered, patterns=PATTERNS))
            except ValueError as exc:
                reports.append(str(exc))
        assert reports[0] == reports[1] == reports[2]
    return machine


# ---------------------------------------------------------------------------
# Small synthetic views

_TYPES = (
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
    GateType.BUF,
    GateType.DFF,
    GateType.TIEHI,
    GateType.TIELO,
)
_UNARY = (GateType.NOT, GateType.BUF, GateType.DFF)
_COORDS = st.integers(0, 4).map(float)


@st.composite
def recovery_instances(draw):
    """(original, view, assignment) over a small random netlist.

    Gate names are a random permutation (name order is the loop-breaking
    order).  Sinks cover gate pins (DFF data pins too), output pads and a
    stub that patches nothing; targets come from a few nets, so output
    pads share targets and guesses close loops; unassigned sinks take
    the nearest source stub (coordinates are coarse, so distances tie).
    """
    num_inputs = draw(st.integers(1, 3))
    num_gates = draw(st.integers(1, 10))
    labels = draw(st.permutations(range(num_gates)))
    original = Circuit("orig")
    nets = [original.add_input(f"i{k}").name for k in range(num_inputs)]
    for label in labels:
        gate_type = draw(st.sampled_from(_TYPES))
        if gate_type in (GateType.TIEHI, GateType.TIELO):
            arity = 0
        elif gate_type in _UNARY:
            arity = 1
        else:
            arity = draw(st.integers(1, 3))
        fanin = [draw(st.sampled_from(nets)) for _ in range(arity)]
        nets.append(original.add(f"g{label:02d}", gate_type, fanin).name)
    for net in draw(st.lists(st.sampled_from(nets), min_size=1, max_size=3, unique=True)):
        original.add_output(net)

    view = FeolView("orig", 4)
    view.gates = dict(original.gates)
    view.outputs = list(original.outputs)
    pins = [
        (gate.name, position)
        for gate in original.gates.values()
        for position in range(len(gate.fanin))
    ]
    owners = draw(st.lists(st.sampled_from(pins), unique=True)) if pins else []
    owners += [(f"PO:{net}", 0) for net in original.outputs if draw(st.booleans())]
    owners.append(("nowhere", 0))
    sinks = [
        SinkStub(k, owner, pin, "", draw(_COORDS), draw(_COORDS), True)
        for k, (owner, pin) in enumerate(owners)
    ]
    draw(st.randoms()).shuffle(sinks)
    view.sink_stubs = sinks
    view.source_stubs = [
        SourceStub(100 + k, net, net, draw(_COORDS), draw(_COORDS), False, None, None)
        for k, net in enumerate(draw(st.lists(st.sampled_from(nets), max_size=4)))
    ]
    targets = draw(st.lists(st.sampled_from(nets), min_size=1, max_size=3))
    assignment = {
        stub.stub_id: draw(st.sampled_from(targets))
        for stub in sinks
        if draw(st.booleans())
    }
    return original, view, assignment


@settings(max_examples=300, deadline=None)
@given(recovery_instances())
def test_machine_matches_reference_rebuild(instance):
    original, view, assignment = instance
    assert_machine_matches_reference(view, assignment, original)


def _po_view() -> tuple[Circuit, FeolView]:
    """Two outputs whose pads are both broken."""
    circuit = Circuit("pads")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add("x", GateType.AND, ("a", "b"))
    circuit.add("y", GateType.OR, ("a", "b"))
    circuit.add_output("x")
    circuit.add_output("y")
    view = FeolView("pads", 4)
    view.gates = dict(circuit.gates)
    view.outputs = list(circuit.outputs)
    view.sink_stubs = [
        SinkStub(0, "PO:x", 0, "x", 0.0, 0.0, True),
        SinkStub(1, "PO:y", 0, "y", 5.0, 0.0, True),
    ]
    view.source_stubs = [
        SourceStub(2, "x", "x", 1.0, 0.0, False, None, None),
        SourceStub(3, "y", "y", 4.0, 0.0, False, None, None),
    ]
    return circuit, view


def test_shared_output_target_is_aliased_through_a_buf():
    circuit, view = _po_view()
    machine = assert_machine_matches_reference(view, {0: "x", 1: "x"}, circuit)
    rendered = machine.circuit()
    assert rendered.outputs == ["x", "x_poalias"]
    assert rendered.gates["x_poalias"].gate_type is GateType.BUF


def test_unassigned_pads_take_the_nearest_source():
    circuit, view = _po_view()
    machine = assert_machine_matches_reference(view, {}, circuit)
    assert machine.circuit().outputs == ["x", "y"]


# ---------------------------------------------------------------------------
# The paper's instances


@pytest.fixture(scope="module")
def smoke():
    spec = attack_smoke_campaign()
    cell = next(
        c.cell for c in spec.cells() if c.cell.benchmark == "random:i14-o8-g200"
    )
    design = locked_design(cell)
    layout = cell_layout(cell, design=design)
    return design, layout


def _assert_view_matches(view: FeolView, original: Circuit | None = None) -> None:
    for assignment in (
        {},
        *(random_guess_attack(view, seed=seed).assignment for seed in range(4)),
    ):
        assert_machine_matches_reference(view, assignment, original)


def test_smoke_view_matches_reference(smoke):
    design, layout = smoke
    _assert_view_matches(layout.feol_view(), design.core)


def test_machine_hd_oer_matches_bigint_oracle(smoke):
    design, layout = smoke
    machine = random_guess_attack(layout.feol_view(), seed=1).machine
    compiled = compute_hd_oer(design.core, machine, patterns=512)
    bigint = reference_hd_oer(design.core, machine, patterns=512)
    assert (compiled.engine, bigint.engine) == ("compiled", "bigint")
    assert compiled == bigint


def test_mismatched_interfaces_are_refused(smoke):
    design, layout = smoke
    machine = random_guess_attack(layout.feol_view(), seed=1).machine
    other = design.core.copy()
    other.add_input("extra_pi")
    with pytest.raises(ValueError, match="input interfaces differ"):
        compute_hd_oer(other, machine, patterns=64)
    fewer = Circuit("fewer", design.core.gates.values(), design.core.outputs[1:])
    with pytest.raises(ValueError, match="output counts differ"):
        compute_hd_oer(fewer, machine, patterns=64)


# ---------------------------------------------------------------------------
# The per-view table memo


def _fresh_view(layout):
    return split_layout(layout.circuit, layout.routing, 4, layout.key_nets)


def test_table_is_memoised_per_view(smoke):
    _, layout = smoke
    view = _fresh_view(layout)
    table = view_table(view)
    assert view_table(view) is table
    assert "_recovery_table" not in vars(pickle.loads(pickle.dumps(view)))


def test_table_rebuilds_after_wire_lifting_moves_stubs(smoke):
    _, layout = smoke
    view = _fresh_view(layout)
    table = view_table(view)
    recovered_machine(view, {}, "before")  # fills the nearest-source memo
    chosen = select_protected_nets(layout.circuit, layout.routing, 0.5)
    concert_stubs(view, set(chosen), layout, random.Random(3))
    assert view_table(view) is not table
    _assert_view_matches(view)


def test_table_rebuilds_after_beol_restore_swaps_gates(smoke):
    design, layout = smoke
    view = _fresh_view(layout)
    table = view_table(view)
    before = recovered_machine(view, {}, "before").compile()
    gates = dict(view.gates)
    flipped = [
        name for name, gate in gates.items() if gate.gate_type in INVERTED_DUAL
    ][:5]
    for name in flipped:
        gates[name] = gates[name].with_type(INVERTED_DUAL[gates[name].gate_type])
    view.gates = gates
    assert view_table(view) is not table
    machine = assert_machine_matches_reference(view, {})
    for name in flipped:
        assert machine.circuit().gates[name].gate_type is gates[name].gate_type
    stimulus = _stimulus(before.inputs)
    assert not np.array_equal(
        before.output_word_arrays(stimulus, PATTERNS),
        machine.compile().output_word_arrays(stimulus, PATTERNS),
    )


# ---------------------------------------------------------------------------
# Full-size netlists: Tables I/II and the defense-matrix views


@pytest.mark.slow
def test_tables_views_match_reference():
    cells = current_profile().table_campaign().cells()
    assert len(cells) == 12
    for cell in cells:
        design = locked_design(cell)
        view = cell_layout(cell, design=design).feol_view(cell.split_layer)
        _assert_view_matches(view, design.core)


@pytest.mark.slow
def test_matrix_views_match_reference():
    spec = defense_smoke_campaign()
    cell = spec.cells()[0].cell
    design = locked_design(cell)
    layout = cell_layout(cell, design=design)
    defended = {
        acell.defense.name: acell.defense
        for acell in spec.cells()
        if acell.defense is not None
    }
    assert len(defended) == 3
    for defense in defended.values():
        view = cell_defense(cell, defense, design=design, layout=layout).view
        _assert_view_matches(view, design.core)
