"""Unit tests for the attack hint classes and the shared utilities."""

import numpy as np
import pytest

from repro.attacks.hints import (
    Reachability,
    creates_loop,
    load_allows,
    timing_allows,
)
from repro.phys.split import FeolView, SinkStub, SourceStub
from repro.utils.rng import derive_seed, np_rng_for, random_bits, rng_for
from repro.utils.tables import paper_vs_measured, render_table
from tests.candidate_reference import proximity_score


def _source(stub_id=0, owner="g1", net="g1", x=0.0, y=0.0, is_tie=False,
            tie_value=None, axis=None):
    return SourceStub(stub_id, owner, net, x, y, is_tie, tie_value, axis)


def _sink(stub_id=1, owner="g2", pin=0, net="g1", x=1.0, y=0.0,
          escape=True, axis=None):
    return SinkStub(stub_id, owner, pin, net, x, y, escape, axis)


# ----------------------------------------------------------------------
# Hint 1+2: proximity / direction
# ----------------------------------------------------------------------
def test_score_plain_euclidean():
    s = _source(x=0, y=0)
    k = _sink(x=3, y=4)
    assert proximity_score(s, k) == pytest.approx(5.0)


def test_score_trunk_alignment_rewards_same_row():
    s = _source(x=0, y=10, axis="x")
    aligned = _sink(x=8, y=10.2, axis="x")
    misrow = _sink(x=8, y=13, axis="x")
    assert proximity_score(s, aligned) < proximity_score(s, misrow)
    assert proximity_score(s, aligned) == pytest.approx(8.0)


def test_score_mode_mismatch_penalised():
    s = _source(x=0, y=0, axis="x")
    near_other_mode = _sink(x=0.5, y=0.0, axis=None)
    assert proximity_score(s, near_other_mode) > 20.0


# ----------------------------------------------------------------------
# Hint 3: load — not applicable to TIE cells
# ----------------------------------------------------------------------
def _dummy_context():
    from repro.attacks.hints import HintContext

    view = FeolView("t", 4)
    view.gates = {}
    return HintContext(view, {}, {}, 0, load_limit=2)


def test_load_limits_regular_drivers():
    context = _dummy_context()
    src = _source()
    assert load_allows(context, src, 0)
    assert load_allows(context, src, 1)
    assert not load_allows(context, src, 2)


def test_load_unbounded_for_ties():
    context = _dummy_context()
    tie = _source(is_tie=True, tie_value=1)
    assert load_allows(context, tie, 10_000)


# ----------------------------------------------------------------------
# Hint 4: loops — vacuous for TIE cells
# ----------------------------------------------------------------------
def _reach(relation: dict[str, set[str]]) -> Reachability:
    """The packed form of a gate -> reachable-gates relation."""
    index = {gate: i for i, gate in enumerate(relation)}
    bits = np.zeros((len(index), 1), dtype=np.uint64)
    for gate, reached in relation.items():
        for other in reached:
            bits[index[gate], 0] |= np.uint64(1 << index[other])
    return Reachability(index, bits)


def test_creates_loop_detects_backedge():
    reaches = _reach({"g2": {"g2", "g1"}, "g1": {"g1"}})
    src = _source(owner="g1")
    sink = _sink(owner="g2")
    assert creates_loop(reaches, src, sink)


def test_tie_sources_never_loop():
    reaches = _reach({"g2": {"g2", "g1"}, "g1": set()})
    tie = _source(owner="k0", is_tie=True, tie_value=0)
    assert not creates_loop(reaches, tie, _sink(owner="g2"))


def test_pads_and_pos_never_loop():
    reaches = _reach({"g2": {"g2"}})
    assert not creates_loop(reaches, _source(owner="PAD:a"), _sink(owner="g2"))
    assert not creates_loop(reaches, _source(owner="g1"), _sink(owner="PO:z"))


# ----------------------------------------------------------------------
# Hint 5: timing — vacuous for TIE cells
# ----------------------------------------------------------------------
def test_timing_prunes_deep_combinations():
    from repro.attacks.hints import HintContext

    context = HintContext(FeolView("t", 4), {"g1": 9}, {"g2": 9}, 10, 5)
    src = _source(owner="g1")
    sink = _sink(owner="g2")
    assert not timing_allows(context, src, sink, slack_factor=1.0)
    assert timing_allows(context, src, sink, slack_factor=2.0)


def test_timing_vacuous_for_ties():
    from repro.attacks.hints import HintContext

    context = HintContext(FeolView("t", 4), {"k0": 9}, {"g2": 9}, 10, 5)
    tie = _source(owner="k0", is_tie=True, tie_value=0)
    assert timing_allows(context, tie, _sink(owner="g2"), slack_factor=0.1)


# ----------------------------------------------------------------------
# Utilities
# ----------------------------------------------------------------------
def test_derive_seed_stable_and_scoped():
    a = derive_seed(1, "x")
    assert a == derive_seed(1, "x")
    assert a != derive_seed(1, "y")
    assert a != derive_seed(2, "x")


def test_rng_streams_isolated():
    r1 = rng_for(7, "a")
    r2 = rng_for(7, "b")
    assert [r1.random() for _ in range(3)] != [r2.random() for _ in range(3)]


def test_np_rng():
    g = np_rng_for(7, "np")
    assert g.integers(0, 100) == np_rng_for(7, "np").integers(0, 100)


def test_random_bits_uniformish():
    rng = rng_for(3, "bits")
    bits = random_bits(2000, rng)
    assert 0.4 < sum(bits) / len(bits) < 0.6


def test_render_table_layout():
    text = render_table(
        "Title", ["a", "bb"], [[1, 2.5], [None, "x"]], note="hello"
    )
    assert "Title" in text
    assert "NA" in text  # None rendering
    assert "2.5" in text
    assert "note: hello" in text


def test_render_table_lines_end_without_spaces():
    text = render_table(
        "Title",
        ["name", "wide header", "last"],
        [["a", 1, 2.5], ["longer name", None, "x"], ["b", "", ""]],
        note="hello",
    )
    lines = text.splitlines()
    assert lines[2] == "name         wide header  last"
    assert lines[4] == "a            1            2.5"
    assert lines[6] == "b"
    assert all(line == line.rstrip(" ") for line in lines)


def test_paper_vs_measured():
    assert paper_vs_measured(52, 49.234) == "52 / 49.2"
    assert paper_vs_measured(None, 1) == "NA / 1"
