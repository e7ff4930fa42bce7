"""Differential tests: the compiled engine vs the big-int oracle.

The compiled engine must agree with ``tests/bigint_sim.py`` — every word
of every net bit-identical to ``simulate_words_bigint`` across gate
types, overrides, non-multiple-of-64 pattern counts, and degenerate
circuits.  The consumer-level paths (HD/OER, fault coverage, LEC) must
report exactly what the oracle reports, down to a single lane and to
circuits with no outputs.
"""

import pickle
import random

import pytest

from repro.atpg.fault_sim import fault_coverage
from repro.atpg.faults import internal_faults
from repro.benchgen import GeneratorConfig, c17, generate_random_circuit
from repro.metrics.hd_oer import compute_hd_oer
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.sat.lec import check_equivalence
from repro.sim.bitparallel import (
    exhaustive_words,
    output_words,
    random_words,
    simulate_words,
    toggle_activity,
)
from repro.sim.compiled import (
    CompiledCircuit,
    compile_circuit,
    int_to_lanes,
    lanes_to_int,
    num_words,
    popcount,
    popcount_rows,
    set_lane_indices,
)
from tests.bigint_sim import (
    output_words_bigint,
    reference_fault_coverage,
    reference_hd_oer,
    simulate_words_bigint,
)

LANE_COUNTS = (1, 63, 64, 65, 257, 1000)


def random_circuit(seed: int, gates: int = 220) -> Circuit:
    config = GeneratorConfig(
        num_inputs=10, num_outputs=5, num_gates=gates, xor_fraction=0.15
    )
    return generate_random_circuit(config, seed=seed, name=f"diff{seed}")


def assert_engines_agree(circuit, words, lanes, overrides=None):
    reference = simulate_words_bigint(circuit, words, lanes, overrides=overrides)
    compiled = compile_circuit(circuit).simulate(words, lanes, overrides=overrides)
    assert reference == compiled


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("lanes", LANE_COUNTS)
def test_random_logic_differential(seed, lanes):
    circuit = random_circuit(seed)
    rng = random.Random(seed * 1000 + lanes)
    words = random_words(circuit.inputs, lanes, rng)
    assert_engines_agree(circuit, words, lanes)


@pytest.mark.parametrize("seed", range(4))
def test_differential_with_overrides(seed):
    circuit = random_circuit(seed)
    lanes = 300  # deliberately not a multiple of 64
    rng = random.Random(seed)
    words = random_words(circuit.inputs, lanes, rng)
    nets = [n for n in circuit.gates if not circuit.gates[n].is_input]
    overrides = {
        nets[len(nets) // 3]: rng.getrandbits(lanes),
        nets[2 * len(nets) // 3]: 0,
        circuit.inputs[0]: (1 << lanes) - 1,  # forced input (key tying)
        "no-such-net": 12345,  # silently ignored by both engines
    }
    assert_engines_agree(circuit, words, lanes, overrides=overrides)


def test_differential_exhaustive_c17():
    circuit = c17()
    words, lanes = exhaustive_words(circuit.inputs)
    assert_engines_agree(circuit, words, lanes)
    assert_engines_agree(circuit, words, lanes, overrides={"N10": 0})


def test_every_gate_type_and_degenerate_arities():
    circuit = Circuit("alltypes")
    for name in ("a", "b", "c"):
        circuit.add_input(name)
    circuit.add("hi", GateType.TIEHI)
    circuit.add("lo", GateType.TIELO)
    two_input = [
        GateType.AND, GateType.NAND, GateType.OR,
        GateType.NOR, GateType.XOR, GateType.XNOR,
    ]
    for i, gate_type in enumerate(two_input):
        circuit.add(f"g{i}", gate_type, ("a", "b"))
        circuit.add(f"w{i}", gate_type, ("a", "b", "c"))  # 3-input
        circuit.add(f"d{i}", gate_type, ("c",))  # degenerate 1-input
    circuit.add("n0", GateType.NOT, ("g0",))
    circuit.add("n1", GateType.BUF, ("g1",))
    circuit.add("mix", GateType.NAND, ("hi", "lo", "n0", "w3"))
    for net in list(circuit.gates):
        if not circuit.gates[net].is_input:
            circuit.add_output(net)
    words, lanes = exhaustive_words(circuit.inputs)
    assert_engines_agree(circuit, words, lanes)


def test_constant_and_pass_through_circuits():
    circuit = Circuit("const")
    circuit.add_input("x")
    circuit.add("hi", GateType.TIEHI)
    circuit.add("lo", GateType.TIELO)
    circuit.add("keep", GateType.BUF, ("x",))
    for net in ("hi", "lo", "keep", "x"):
        circuit.add_output(net)
    for lanes in (1, 65, 130):
        words = {"x": random.Random(lanes).getrandbits(lanes)}
        assert_engines_agree(circuit, words, lanes)


def test_compiled_rejects_sequential(sequential_circuit):
    with pytest.raises(ValueError):
        CompiledCircuit(sequential_circuit)


def test_compiled_missing_stimulus_message(c17_circuit):
    engine = compile_circuit(c17_circuit)
    with pytest.raises(KeyError, match="no stimulus for primary input"):
        engine.simulate({"N1": 0}, 8)


def test_batch_override_columns_match_bigint():
    circuit = random_circuit(5)
    lanes = 130
    words = random_words(circuit.inputs, lanes, random.Random(5))
    engine = compile_circuit(circuit)
    nets = [n for n in circuit.gates if not circuit.gates[n].is_input]
    scenarios = [None, {nets[0]: 0}, {nets[1]: (1 << lanes) - 1}, {nets[2]: 7}]
    buf = engine.simulate_batch_array(words, lanes, scenarios)
    for column, overrides in enumerate(scenarios):
        reference = simulate_words_bigint(
            circuit, words, lanes, overrides=overrides
        )
        for net, slot in engine.index.items():
            assert lanes_to_int(buf[slot, column]) == reference[net], (
                column,
                net,
            )


def test_empty_override_batch_returns_empty_buffer():
    circuit = random_circuit(6)
    words = random_words(circuit.inputs, 128, random.Random(6))
    buf = compile_circuit(circuit).simulate_batch_array(words, 128, [])
    assert buf.shape == (len(circuit.gates), 0, 2)


def test_wide_batch_blocked_sweep_differential():
    """Pattern counts past BLOCK_WORDS exercise the blocked code path."""
    circuit = random_circuit(7, gates=120)
    lanes = 40_000  # 625 words > BLOCK_WORDS
    words = random_words(circuit.inputs, lanes, random.Random(7))
    assert_engines_agree(circuit, words, lanes)


def test_fault_coverage_engine_independent():
    circuit = random_circuit(11, gates=260)
    faults = internal_faults(circuit)
    words = random_words(circuit.inputs, 1024, random.Random(2))
    assert fault_coverage(circuit, faults, words, 1024) == (
        reference_fault_coverage(circuit, faults, words, 1024)
    )


def test_hd_oer_engine_independent():
    config = GeneratorConfig(num_inputs=10, num_outputs=4, num_gates=200)
    original = generate_random_circuit(config, seed=21, name="m")
    recovered = generate_random_circuit(config, seed=22, name="m")
    report = compute_hd_oer(original, recovered, patterns=3000, seed=5)
    assert report.engine == "compiled"
    assert report == reference_hd_oer(original, recovered, patterns=3000, seed=5)


def _small_circuit(seed: int) -> Circuit:
    """A random netlist under 24 gates (once below the compile threshold)."""
    config = GeneratorConfig(num_inputs=5, num_outputs=3, num_gates=18)
    return generate_random_circuit(config, seed=seed, name=f"small{seed}")


@pytest.mark.parametrize("lanes", (1, 8, 63))
def test_small_circuits_and_narrow_batches_match_oracle(lanes):
    """c17 and sub-24-gate circuits at 1, 8 and 63 lanes, every entry point."""
    for circuit in (c17(), _small_circuit(0), _small_circuit(1)):
        assert len(circuit.gates) - len(circuit.inputs) < 24
        rng = random.Random(lanes)
        words = random_words(circuit.inputs, lanes, rng)
        assert_engines_agree(circuit, words, lanes)
        assert output_words(circuit, words, lanes) == output_words_bigint(
            circuit, words, lanes
        )
        faults = internal_faults(circuit)
        assert fault_coverage(circuit, faults, words, lanes) == (
            reference_fault_coverage(circuit, faults, words, lanes)
        )
        twin = circuit.copy("twin")
        victim = next(n for n in twin.gates if not twin.gates[n].is_input)
        twin.replace_gate(twin.gates[victim].with_type(GateType.XNOR))
        for chunk in (lanes, 4096):
            assert compute_hd_oer(
                circuit, twin, patterns=lanes * 3, chunk=chunk
            ) == reference_hd_oer(circuit, twin, patterns=lanes * 3, chunk=chunk)


def test_single_lane_lec_counterexample_replays():
    circuit = c17()
    broken = circuit.copy("broken")
    broken.replace_gate(broken.gates["N22"].with_type(GateType.AND))
    # No simulation lanes: the SAT model is the counterexample, replayed
    # on one lane.
    result = check_equivalence(circuit, broken, simulation_patterns=0)
    assert (result.equivalent, result.method) == (False, "sat")
    assert result.counterexample_confirmed is True
    witness = result.counterexample
    assert output_words_bigint(circuit, witness, 1) != output_words_bigint(
        broken, witness, 1
    )
    assert check_equivalence(circuit, circuit.copy(), simulation_patterns=8).equivalent


def test_zero_output_circuit_hd_oer():
    circuit = Circuit("mute")
    for name in ("a", "b"):
        circuit.add_input(name)
    circuit.add("g", GateType.AND, ("a", "b"))
    report = compute_hd_oer(circuit, circuit.copy(), patterns=300, chunk=128)
    assert report == reference_hd_oer(circuit, circuit.copy(), patterns=300, chunk=128)
    assert (report.hd_percent, report.oer_percent, report.patterns) == (0.0, 0.0, 300)


def test_empty_fault_list_still_reads_the_stimulus(c17_circuit):
    words, lanes = exhaustive_words(c17_circuit.inputs)
    assert fault_coverage(c17_circuit, [], words, lanes) == (1.0, [])
    assert reference_fault_coverage(c17_circuit, [], words, lanes) == (1.0, [])
    with pytest.raises(KeyError, match="no stimulus for primary input"):
        fault_coverage(c17_circuit, [], {"N1": 0}, 8)


def test_sequential_inputs_keep_their_errors(sequential_circuit):
    words = {net: 0 for net in sequential_circuit.inputs}
    with pytest.raises(ValueError, match="simulate_words handles combinational"):
        simulate_words(sequential_circuit, words, 8)
    with pytest.raises(ValueError, match="simulate_words handles combinational"):
        output_words(sequential_circuit, words, 8)
    with pytest.raises(ValueError, match="simulate_words handles combinational"):
        toggle_activity(sequential_circuit, 8)
    with pytest.raises(ValueError, match="fault simulation expects a combinational"):
        fault_coverage(sequential_circuit, [], words, 8)


def test_compile_cache_reuses_and_invalidates():
    circuit = random_circuit(2)
    first = compile_circuit(circuit)
    assert compile_circuit(circuit) is first
    victim = next(
        n for n in circuit.gates if circuit.gates[n].gate_type is GateType.NAND
    )
    circuit.replace_gate(circuit.gates[victim].with_type(GateType.AND))
    second = compile_circuit(circuit)
    assert second is not first
    words = random_words(circuit.inputs, 96, random.Random(0))
    assert second.simulate(words, 96) == simulate_words_bigint(
        circuit, words, 96
    )


def test_circuit_pickle_drops_caches_and_still_simulates():
    circuit = random_circuit(4)
    compile_circuit(circuit)  # populate the cache
    clone = pickle.loads(pickle.dumps(circuit))
    assert clone._compiled_cache is None
    assert clone._topo_cache is None
    words = random_words(circuit.inputs, 77, random.Random(4))
    assert simulate_words(clone, words, 77) == simulate_words_bigint(
        circuit, words, 77
    )


def test_lane_helpers_roundtrip():
    rng = random.Random(0)
    for lanes in (1, 64, 70, 500):
        word = rng.getrandbits(lanes)
        arr = int_to_lanes(word, lanes)
        assert arr.shape == (num_words(lanes),)
        assert lanes_to_int(arr) == word
        assert popcount(arr) == word.bit_count()
        assert set_lane_indices(arr).tolist() == [
            i for i in range(lanes) if (word >> i) & 1
        ]
    two = int_to_lanes(0b1011, 4).reshape(1, 1)
    assert popcount_rows(two).tolist() == [3]
