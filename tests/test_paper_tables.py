"""The paper artefacts' specs and renderers (Tables I–III, Fig. 5).

Each artefact has one spec in :mod:`repro.runner.profiles` and one
renderer in :mod:`repro.runner.paper_data`, shared by the CLI and the
benchmark harnesses.  The Table III pin holds the seed-0 quick grid to
the values the harness-only pipeline printed before the grid moved
into the runner.
"""

from __future__ import annotations

import pytest

from repro.benchgen import TABLE_I_BENCHMARKS, TABLE_III_BENCHMARKS
from repro.runner import (
    AttackCampaignSpec,
    CampaignResult,
    CampaignSpec,
    ExperimentProfile,
    prorated_key_bits,
    run_attack_campaign,
    run_campaign,
)
from repro.runner.cli import _cmd_table3, build_parser
from repro.runner.paper_data import (
    AVERAGE,
    PAPER_FIG5,
    PAPER_TABLE1_AVERAGES,
    PAPER_TABLE2_AVERAGES,
    render_fig5,
    render_table1,
    render_table2,
    render_table3,
    table12_rows,
    table3_grid,
)
from repro.runner.spec import DEFAULT_SEED

QUICK = ExperimentProfile(full=False, scale=None)
FULL = ExperimentProfile(full=True, scale=None)


def test_table3_subcommand_takes_the_common_flags():
    args = build_parser().parse_args(
        ["table3", "--workers", "2", "--cache-dir", "somewhere", "--no-cache"]
    )
    assert args.func is _cmd_table3
    assert (args.workers, args.cache_dir, args.no_cache) == (2, "somewhere", True)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["table3", "--json", "out.json"])


def _table3_cells_oracle(full: bool) -> tuple:
    """Table III's cells as the harness pipeline built them: two attack
    campaign specs, the prior art on the unlocked design and the 32-bit
    proposed lock, under the profile's candidate budget."""
    names = TABLE_III_BENCHMARKS if full else ("c432", "c880", "c1355", "c1908")
    common = dict(
        benchmarks=names,
        scenarios=("proximity",),
        split_layers=(4,),
        seed=DEFAULT_SEED,
        hd_patterns=1_000_000 if full else 8_192,
        max_candidates=500 if full else 250,
    )
    defenses = ("routing-perturbation", "wire-lifting", "beol-restore")
    return (
        AttackCampaignSpec(defenses=defenses, key_bits=(0,), **common).cells()
        + AttackCampaignSpec(key_bits=(32,), **common).cells()
    )


@pytest.mark.parametrize("profile", [QUICK, FULL], ids=["quick", "full"])
def test_table3_cells_match_the_two_spec_grid(profile):
    cells = profile.table3_cells()
    assert cells == _table3_cells_oracle(profile.full)
    assert len(cells) == 4 * len(profile.table3_benchmarks)


def test_fig5_cells_prorate_the_key_over_the_table_designs():
    profile = ExperimentProfile(full=False, scale=0.03)
    cells = profile.fig5_cells()
    assert [c.benchmark for c in cells] == list(TABLE_I_BENCHMARKS)
    for cell in cells:
        assert cell.key_bits == prorated_key_bits(cell.benchmark, 0.03)
        assert (cell.scale, cell.max_candidates) == (0.03, 250)


@pytest.fixture(scope="module")
def b14_result() -> CampaignResult:
    """A scaled b14 at M4/M6: the smallest Tables I/II-shaped campaign."""
    return run_campaign(
        CampaignSpec(
            benchmarks=("b14",),
            key_bits=(12,),
            scale=0.03,
            hd_patterns=512,
            max_candidates=60,
        ),
        workers=1,
        use_cache=False,
    )


def _rows_of(rendered: str) -> list[str]:
    """Body lines of one rendered table (title, rule, header, rule cut)."""
    return [line.rstrip() for line in rendered.splitlines()[4:]]


def test_tables_1_and_2_end_in_the_paper_averages(b14_result):
    rows = table12_rows(b14_result)
    [(name, m4, m6)] = rows
    assert (name, m4.split_layer, m6.split_layer) == ("b14", 4, 6)

    table1 = _rows_of(render_table1(rows))
    assert table1[0].split()[0] == "b14"
    average = table1[1].split("  ")
    assert average[0] == AVERAGE
    metrics = ("key_logical", "key_physical", "regular")
    paper = [PAPER_TABLE1_AVERAGES[m][i] for i in (0, 1) for m in metrics]
    measured = [
        round(getattr(run.ccr, f"{m}_ccr")) for run in (m4, m6) for m in metrics
    ]
    cells = [c.strip() for c in average[1:] if c.strip()]
    assert cells == [f"{p} / {m}" for p, m in zip(paper, measured)]

    table2 = render_table2(rows, 512)
    assert "over 512 simulation runs" in table2.splitlines()[0]
    average = [c.strip() for c in _rows_of(table2)[1].split("  ") if c.strip()]
    assert average == [
        AVERAGE,
        f"{PAPER_TABLE2_AVERAGES['hd'][0]} / {round(m4.hd_oer.hd_percent)}",
        f"{PAPER_TABLE2_AVERAGES['oer'][0]} / {round(m4.hd_oer.oer_percent)}",
        f"{PAPER_TABLE2_AVERAGES['hd'][1]} / {round(m6.hd_oer.hd_percent)}",
        f"{PAPER_TABLE2_AVERAGES['oer'][1]} / {round(m6.hd_oer.oer_percent)}",
    ]


def test_fig5_prints_the_lifting_power_cost():
    data = {
        "x": {
            "prelift": {"area": -10.0, "power": 1.0, "timing": 2.0},
            "M4": {"area": -9.0, "power": 6.0, "timing": 3.0},
            "M6": {"area": -8.0, "power": 4.0, "timing": 1.0},
        }
    }
    fig5, lifting = render_fig5(data).split("\n\n")
    assert fig5.splitlines()[0].startswith("Fig. 5: layout cost (%)")
    assert _rows_of(fig5)[0].split() == [
        *("prelift", "area", "-12.8"),
        *("-10.0", "-10.0", "..", "-10.0"),
    ]
    paper_m4 = PAPER_FIG5["M4"]["power"] - PAPER_FIG5["prelift"]["power"]
    paper_m6 = PAPER_FIG5["M6"]["power"] - PAPER_FIG5["prelift"]["power"]
    assert _rows_of(lifting)[:2] == [
        f"M4     {paper_m4:+.1f}  +5.0",
        f"M6     {paper_m6:+.1f}   +3.0",
    ]


#: The seed-0 quick Table III grid, ``{benchmark: {scheme: (PNR, CCR,
#: HD, OER)}}``, as the harness-only serial pipeline computed it.
TABLE3_QUICK_SEED0 = {
    "c432": {
        "[22]": (64.76190476190476, 64.76190476190476, 34.041922433035715, 96.64306640625),
        "[12]": (1.6853932584269662, 1.6853932584269662, 46.493094308035715, 98.8037109375),
        "[13]": (0.5617977528089888, 0.5617977528089888, 52.21470424107143, 99.560546875),
        "proposed": (6.25, 6.25, 40.74183872767857, 100.0),
    },
    "c880": {
        "[22]": (69.33333333333333, 69.33333333333333, 27.52356896033654, 100.0),
        "[12]": (0.7751937984496124, 0.7751937984496124, 43.12650240384615, 100.0),
        "[13]": (0.7751937984496124, 0.7751937984496124, 42.98799954927885, 100.0),
        "proposed": (0.0, 0.0, 14.571908804086538, 98.93798828125),
    },
    "c1355": {
        "[22]": (59.7444089456869, 59.7444089456869, 36.36474609375, 100.0),
        "[12]": (0.16583747927031509, 0.16583747927031509, 50.01373291015625, 100.0),
        "[13]": (0.33167495854063017, 0.33167495854063017, 48.931884765625, 100.0),
        "proposed": (6.25, 6.25, 17.132186889648438, 100.0),
    },
    "c1908": {
        "[22]": (59.067357512953365, 59.067357512953365, 46.5830078125, 100.0),
        "[12]": (0.19821605550049554, 0.19821605550049554, 50.05908203125, 100.0),
        "[13]": (0.29732408325074333, 0.29732408325074333, 50.06884765625, 100.0),
        "proposed": (3.125, 3.125, 14.47265625, 99.98779296875),
    },
}


@pytest.mark.slow
@pytest.mark.parametrize("workers", [1, 2])
def test_table3_quick_grid_is_pinned(workers):
    result = run_attack_campaign(
        QUICK.table3_cells(), workers=workers, use_cache=False
    )
    grid = table3_grid(result)
    assert grid == TABLE3_QUICK_SEED0
    assert list(grid) == list(QUICK.table3_benchmarks)
    assert _rows_of(render_table3(grid))[:4] == [
        "[22]      88.3 / 63.2       73.3 / 63.2  29.1 / 36.1  99.9 / 99.2",
        "[12]      30.3 / 0.7        0.0 / 0.7    41.1 / 47.4  100.0 / 99.7",
        "[13]      NA / 0.5          0.0 / 0.5    41.7 / 48.6  99.9 / 99.9",
        "proposed  27.5 / 3.9        1.1 / 3.9    42.8 / 21.7  99.8 / 99.7",
    ]
