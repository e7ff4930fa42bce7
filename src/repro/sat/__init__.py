"""SAT substrate: CNF, Tseitin encoding, CDCL solver, equivalence checking."""

from repro.sat.cnf import Cnf
from repro.sat.lec import LecResult, build_miter, check_equivalence
from repro.sat.solver import CdclSolver, SatResult, SolverStats, solve_cnf
from repro.sat.tseitin import CircuitEncoding, encode_circuit, encode_gate

__all__ = [
    "CdclSolver",
    "CircuitEncoding",
    "Cnf",
    "LecResult",
    "SatResult",
    "SolverStats",
    "build_miter",
    "check_equivalence",
    "encode_circuit",
    "encode_gate",
    "solve_cnf",
]
