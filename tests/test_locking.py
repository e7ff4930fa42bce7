"""Locking tests: partitioning, restore circuitry, ATPG lock, random lock."""

import hashlib
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.atpg import StuckAtFault, enumerate_failing_patterns, internal_faults
from repro.benchgen import (
    GeneratorConfig,
    generate_random_circuit,
    load_iscas85,
    load_itc99,
)
from repro.locking import (
    AtpgLockConfig,
    LockedCircuit,
    atpg_lock,
    insert_restore,
    random_lock,
)
from repro.locking.cost_model import cascade_removed_area, restore_area_estimate
from repro.locking.partition import affected_sinks, extract_sink_modules, grow_cut
from repro.netlist.gate_types import GateType
from repro.sat.lec import check_equivalence
from repro.sim.bitparallel import output_words, random_words
from tests.conftest import build_random_circuit


def _hd(a, b, patterns=256, seed=0):
    rng = random.Random(seed)
    words = random_words(a.inputs, patterns, rng)
    oa = output_words(a, words, patterns)
    ob = output_words(b, words, patterns)
    bits = patterns * len(a.outputs)
    diff = sum((oa[x] ^ ob[y]).bit_count() for x, y in zip(a.outputs, b.outputs))
    return diff / bits


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
def test_affected_sinks_c17(c17_circuit):
    sinks, aliases = affected_sinks(c17_circuit, "N10")
    assert sinks == ["N22"]
    assert aliases["N22"] == ["PO:N22"]
    sinks, _ = affected_sinks(c17_circuit, "N11")
    assert set(sinks) == {"N22", "N23"}


def test_grow_cut_separates_and_contains(c17_circuit):
    cut = grow_cut(c17_circuit, ["N22"], "N10", max_support=5)
    assert cut is not None
    assert "N10" not in cut
    # the cut must not include fault-tainted nets
    tainted = c17_circuit.transitive_fanout(["N10"])
    assert not set(cut) & tainted


def test_extract_sink_modules_per_sink(c17_circuit):
    modules = extract_sink_modules(c17_circuit, "N11", max_support=5)
    assert modules is not None
    assert len(modules) == 2
    for module in modules:
        assert len(module.sink_nets) == 1
        assert "N11" in module.gates
        # the module's nets in topological order, ending at its sink
        index = c17_circuit.topological_index()
        assert module.gates == sorted(module.gates, key=index.__getitem__)
        assert module.gates[-1] == module.sink_nets[0]
        assert not set(module.cut_nets) & set(module.gates)


def test_extract_sink_modules_respects_budget(c17_circuit):
    assert extract_sink_modules(c17_circuit, "N11", max_support=1) is None


def test_sequential_sinks_are_dff_pins(sequential_circuit):
    core_faults = internal_faults(sequential_circuit)
    fault = core_faults[0]
    sinks, aliases = affected_sinks(sequential_circuit, fault.net)
    assert sinks
    kinds = {a.split(":")[0] for alist in aliases.values() for a in alist}
    assert kinds <= {"PO", "DFF"}


# ----------------------------------------------------------------------
# Restore circuitry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fault", [StuckAtFault("N10", 1), StuckAtFault("N19", 1), StuckAtFault("N16", 0)])
def test_inject_plus_restore_is_equivalent(c17_circuit, fault):
    work = c17_circuit.copy("w")
    modules = extract_sink_modules(work, fault.net, max_support=5)
    assert modules is not None
    rng = random.Random(4)
    key_index = 0
    patterns_list = [
        enumerate_failing_patterns(work, fault, m, max_inputs=5, max_minterms=32)
        for m in modules
    ]
    from repro.netlist.circuit import Gate

    tie = GateType.TIEHI if fault.value else GateType.TIELO
    work.replace_gate(Gate(fault.net, tie, ()))
    for module, patterns in zip(modules, patterns_list):
        if not any(patterns.minterms_by_output.values()):
            continue
        result = insert_restore(work, module, patterns, rng, key_index, "lk")
        key_index += len(result.key_bits)
    lec = check_equivalence(c17_circuit, work)
    assert lec.equivalent is True, lec.counterexample


def test_restore_key_bits_are_uniformlike():
    """Over many restore insertions, key bits should mix HI and LO."""
    circuit = build_random_circuit(5, num_inputs=8, num_gates=60)
    locked, report = atpg_lock(
        circuit, AtpgLockConfig(key_bits=24, seed=9, run_lec=False)
    )
    values = [bit.value for bit in locked.key_bits]
    assert 0 < sum(values) < len(values)  # both polarities present


# ----------------------------------------------------------------------
# ATPG lock end-to-end
# ----------------------------------------------------------------------
def test_atpg_lock_c17_small_key(c17_circuit):
    locked, report = atpg_lock(
        c17_circuit,
        AtpgLockConfig(key_bits=8, max_support=5, max_minterms=16, seed=1),
    )
    assert report.lec_equivalent is True
    assert locked.key_length == 8
    assert locked.verify_tie_polarity()
    assert len(locked.circuit.tie_cells) >= 8


def test_atpg_lock_exact_key_budget():
    circuit = build_random_circuit(8, num_inputs=10, num_gates=90)
    locked, report = atpg_lock(
        circuit, AtpgLockConfig(key_bits=20, seed=2, run_lec=True)
    )
    assert locked.key_length == 20
    assert report.atpg_key_bits + report.random_key_bits == 20
    assert report.lec_equivalent is True


def test_atpg_lock_zero_bits_is_unmodified():
    circuit = build_random_circuit(9, num_inputs=10, num_gates=90)
    locked, report = atpg_lock(circuit, AtpgLockConfig(key_bits=0, seed=2))
    assert locked.key_length == 0
    assert locked.circuit is not circuit
    assert locked.circuit.inputs == circuit.inputs
    assert locked.circuit.outputs == circuit.outputs
    assert locked.circuit.gates == circuit.gates
    assert report.selected_faults == [] and report.free_faults == []


def test_atpg_lock_wrong_key_corrupts():
    circuit = build_random_circuit(10, num_inputs=10, num_gates=90)
    locked, _ = atpg_lock(
        circuit, AtpgLockConfig(key_bits=16, seed=3, run_lec=False)
    )
    wrong = [1 - b for b in locked.key]
    hd = _hd(circuit, locked.with_key(wrong))
    assert hd > 0.01


def test_atpg_lock_correct_key_is_identity():
    circuit = build_random_circuit(12, num_inputs=10, num_gates=80)
    locked, _ = atpg_lock(
        circuit, AtpgLockConfig(key_bits=12, seed=4, run_lec=False)
    )
    assert _hd(circuit, locked.with_key(list(locked.key))) == 0.0


def test_atpg_lock_deterministic():
    circuit = build_random_circuit(14, num_inputs=9, num_gates=70)
    l1, _ = atpg_lock(circuit, AtpgLockConfig(key_bits=10, seed=5, run_lec=False))
    l2, _ = atpg_lock(circuit, AtpgLockConfig(key_bits=10, seed=5, run_lec=False))
    assert l1.key == l2.key
    assert list(l1.circuit.gates) == list(l2.circuit.gates)


def test_locked_circuit_model():
    circuit = build_random_circuit(16, num_inputs=8, num_gates=50)
    locked, _ = atpg_lock(
        circuit, AtpgLockConfig(key_bits=6, seed=6, run_lec=False)
    )
    assert isinstance(locked, LockedCircuit)
    assert len(locked.tie_cells) == 6
    assert len(locked.key_gates) == 6
    assert locked.protected_nets == set(locked.tie_cells) | set(locked.key_gates)
    with pytest.raises(ValueError):
        locked.with_key([0])


# ----------------------------------------------------------------------
# Lock identity
# ----------------------------------------------------------------------
#: sha256 of ``pickle.dumps((locked, report), protocol=4)`` for a 16-bit
#: ``atpg_lock`` (seed 3) of three small benchgen designs.  Any change to
#: lock planning that moves a selected fault, a key bit, a gate or a
#: report field moves these.
LOCK_PINS = {
    "random": "e9e6bc07616daafb6fd33949d66ffef8b40f0d7b86feb7c6ab06bedac941da99",
    "c432": "b4e1b212daa814da26be5c0cb2b30c9d5dfea27f0694904a9a812f518f6c37cf",
    "b14": "49e15dbd887e4c77867a36486b6a6ef24c2e096c4498c34a19444ff8e0049103",
}


def _pin_design(name):
    if name == "random":
        config = GeneratorConfig(
            num_inputs=10, num_outputs=3, num_gates=90, pocket_fraction=0.0
        )
        return generate_random_circuit(config, seed=8, name="h8")
    if name == "c432":
        return load_iscas85("c432")
    return load_itc99("b14", scale=0.02).combinational_core()


def lock_digest(name: str) -> str:
    locked, report = atpg_lock(_pin_design(name), AtpgLockConfig(key_bits=16, seed=3))
    return hashlib.sha256(pickle.dumps((locked, report), protocol=4)).hexdigest()


@pytest.mark.parametrize("name", sorted(LOCK_PINS))
def test_lock_is_byte_identical_to_pin(name):
    assert lock_digest(name) == LOCK_PINS[name]


def test_lock_does_not_depend_on_hash_seed():
    """Planning caches hold sets of nets; the lock must not follow their
    iteration order."""
    src = str(Path(repro.__file__).resolve().parents[1])
    root = str(Path(__file__).resolve().parents[1])
    script = "from tests.test_locking import lock_digest; print(lock_digest('b14'))"
    digests = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [src, root, env.get("PYTHONPATH", "")]
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            cwd=root,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        digests.append(done.stdout.strip())
    assert digests == [LOCK_PINS["b14"]] * 2


# ----------------------------------------------------------------------
# Random (EPIC) locking
# ----------------------------------------------------------------------
def test_random_lock_equivalent_under_correct_key():
    circuit = build_random_circuit(20, num_inputs=8, num_gates=60)
    locked = random_lock(circuit, key_bits=16, seed=7)
    assert locked.key_length == 16
    lec = check_equivalence(circuit, locked.circuit)
    assert lec.equivalent is True


def test_random_lock_wrong_key_flips_outputs():
    circuit = build_random_circuit(21, num_inputs=8, num_gates=60)
    locked = random_lock(circuit, key_bits=16, seed=8)
    wrong = [1 - b for b in locked.key]
    assert _hd(circuit, locked.with_key(wrong)) > 0.05


def test_random_lock_single_bit_flip_changes_function():
    circuit = build_random_circuit(22, num_inputs=8, num_gates=60)
    locked = random_lock(circuit, key_bits=8, seed=9)
    guess = list(locked.key)
    guess[0] ^= 1
    assert _hd(circuit, locked.with_key(guess)) > 0.0


def test_no_same_mask_cube_pairs_selected():
    """Key-orbit regression: covers with two same-mask cubes (XOR-shaped
    failing sets) admit a wrong-but-equivalent key flip that swaps the
    comparators; the planner must reject such faults."""
    from repro.locking.atpg_lock import _cover_has_flip_symmetry
    from repro.atpg.cubes import Cube
    from repro.atpg.patterns import FailingPatterns
    from repro.atpg.faults import StuckAtFault

    symmetric = FailingPatterns(
        StuckAtFault("x", 0),
        ["a", "b"],
        {"o": {0b01, 0b10}},
        {"o": [Cube(0b11, 0b01), Cube(0b11, 0b10)]},
    )
    assert _cover_has_flip_symmetry(symmetric)
    asymmetric = FailingPatterns(
        StuckAtFault("x", 0),
        ["a", "b"],
        {"o": {0b01, 0b00}},
        {"o": [Cube(0b10, 0b00)]},
    )
    assert not _cover_has_flip_symmetry(asymmetric)


def test_fully_flipped_key_breaks_function():
    """The antipodal key must not be a functional equivalent (the orbit
    the symmetry rejection exists to eliminate)."""
    from repro.sat.lec import check_equivalence

    circuit = build_random_circuit(33, num_inputs=12, num_gates=180)
    locked, _ = atpg_lock(
        circuit, AtpgLockConfig(key_bits=16, seed=5, run_lec=False)
    )
    all_wrong = [1 - b for b in locked.key]
    lec = check_equivalence(circuit, locked.with_key(all_wrong))
    assert lec.equivalent is False


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
def test_cascade_removed_area_counts_mffc(c17_circuit):
    area = cascade_removed_area(c17_circuit, "N10", 1)
    assert area > 0.0


def test_restore_area_estimate_tracks_insertion(c17_circuit):
    (module,) = extract_sink_modules(c17_circuit, "N10", max_support=5)
    patterns = enumerate_failing_patterns(
        c17_circuit, StuckAtFault("N10", 1), module, max_inputs=5
    )
    estimate = restore_area_estimate(patterns)
    assert estimate > 0.0
