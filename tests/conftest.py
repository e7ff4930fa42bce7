"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.benchgen import GeneratorConfig, c17, generate_random_circuit
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType
from repro.runner.engine import AttackCellResult, CellResult
from repro.runner.serialize import canonical_json, result_record
from repro.runner.spec import AttackCellSpec
from repro.runner.stages import cell_attack, cell_run
from repro.utils.artifact_cache import CacheStats


@pytest.fixture
def c17_circuit() -> Circuit:
    return c17()


@pytest.fixture
def small_random_circuit() -> Circuit:
    config = GeneratorConfig(
        num_inputs=8, num_outputs=4, num_gates=60, pocket_fraction=0.0
    )
    return generate_random_circuit(config, seed=11, name="t60")


@pytest.fixture
def mid_random_circuit() -> Circuit:
    config = GeneratorConfig(num_inputs=16, num_outputs=8, num_gates=240)
    return generate_random_circuit(config, seed=7, name="t240")


@pytest.fixture
def sequential_circuit() -> Circuit:
    config = GeneratorConfig(
        num_inputs=6, num_outputs=4, num_gates=80, num_dffs=5
    )
    return generate_random_circuit(config, seed=3, name="tseq")


def build_random_circuit(
    seed: int,
    num_inputs: int = 6,
    num_gates: int = 40,
    num_outputs: int = 3,
) -> Circuit:
    """Deterministic random circuit for hypothesis-driven tests."""
    config = GeneratorConfig(
        num_inputs=num_inputs,
        num_outputs=num_outputs,
        num_gates=num_gates,
        pocket_fraction=0.0,
    )
    return generate_random_circuit(config, seed=seed, name=f"h{seed}")


#: Strategy: seeds for random-circuit generation.
circuit_seeds = st.integers(min_value=0, max_value=10_000)

#: Strategy: input patterns of a given width.
def patterns_for(width: int, max_count: int = 16):
    return st.lists(
        st.lists(st.integers(0, 1), min_size=width, max_size=width),
        min_size=1,
        max_size=max_count,
    )


def random_assignment(circuit: Circuit, seed: int) -> dict[str, int]:
    rng = random.Random(seed)
    return {net: rng.randrange(2) for net in circuit.inputs}


def tiny_mux_circuit() -> Circuit:
    """z = (a AND s) OR (b AND NOT s): a handy 2:1 mux for unit tests."""
    circuit = Circuit("mux")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_input("s")
    circuit.add("ns", GateType.NOT, ("s",))
    circuit.add("t0", GateType.AND, ("a", "s"))
    circuit.add("t1", GateType.AND, ("b", "ns"))
    circuit.add("z", GateType.OR, ("t0", "t1"))
    circuit.add_output("z")
    return circuit


def per_cell_records(cells) -> str:
    """Canonical JSON of *cells* each run alone through its stage function.

    The differential reference for the grid compiler: ``cell_run`` /
    ``cell_attack`` per cell with no cache, no in-memory artifacts shared
    between cells and no group-scoped memos.
    """
    results = []
    for cell in cells:
        if isinstance(cell, AttackCellSpec):
            results.append(
                AttackCellResult(cell, cell_attack(cell), 0.0, CacheStats())
            )
        else:
            results.append(CellResult(cell, cell_run(cell), 0.0, CacheStats()))
    return canonical_json([result_record(r) for r in results])
