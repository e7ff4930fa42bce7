"""The paper's published experiment tables and their renderers.

Shared by the benchmark harnesses and the CLI so every surface prints
the same paper-vs-measured comparison: each table's row builder and
renderer live here, beside the published numbers they compare against.
``None`` marks cells the paper reports as NA (the b17/M4 attack timed
out after 72 hours).

The campaign service preloads the grid compiler's import chain into
every worker, so this module stays out of it: only the CLI and the
harnesses import it.
"""

from __future__ import annotations

import statistics

from repro.adversary.evaluate import AttackOutcome
from repro.runner.engine import AttackCampaignResult, CampaignResult
from repro.runner.profiles import TABLE_III_DEFENSES
from repro.utils.tables import paper_vs_measured, render_table

#: Table I: benchmark -> (M4 row, M6 row), rows being
#: (key logical CCR, key physical CCR, regular CCR) in percent.
PAPER_TABLE1 = {
    "b14": ((52, 1, 17), (54, 2, 47)),
    "b15": ((49, 0, 15), (49, 0, 25)),
    "b17": ((None, None, None), (51, 1, 21)),
    "b20": ((54, 0, 17), (60, 0, 36)),
    "b21": ((50, 0, 14), (54, 0, 36)),
    "b22": ((52, 0, 14), (55, 0, 25)),
}

#: Table I column averages as published: (M4, M6) per metric.
PAPER_TABLE1_AVERAGES = {
    "key_logical": (51, 54),
    "key_physical": (0, 1),
    "regular": (15, 32),
}

#: Table II: benchmark -> ((HD, OER) at M4, (HD, OER) at M6) in percent.
PAPER_TABLE2 = {
    "b14": ((46, 100), (25, 100)),
    "b15": ((52, 100), (20, 100)),
    "b17": ((None, None), (31, 100)),
    "b20": ((57, 100), (19, 100)),
    "b21": ((56, 100), (26, 100)),
    "b22": ((57, 100), (27, 100)),
}

#: Table II averages as published: (M4, M6) per metric.
PAPER_TABLE2_AVERAGES = {"hd": (53, 25), "oer": (100, 100)}

#: Table III averages as published: scheme -> (PNR, CCR, HD, OER) in
#: percent; [13] reports no PNR.
PAPER_TABLE3_AVERAGES = {
    "[22]": (88.3, 73.3, 29.1, 99.9),
    "[12]": (30.3, 0.0, 41.1, 100.0),
    "[13]": (None, 0.0, 41.7, 99.9),
    "proposed": (27.5, 1.1, 42.8, 99.8),
}

#: Fig. 5: average layout cost (%) versus the unprotected baseline.
PAPER_FIG5 = {
    "prelift": {"area": -12.75, "power": +7.66, "timing": +6.40},
    "M4": {"area": -10.05, "power": +20.34, "timing": +6.25},
    "M6": {"area": -8.83, "power": +15.46, "timing": +6.53},
}

#: The label of each table's Average row (short enough to keep the
#: benchmark column's width).
AVERAGE = "Avg."

Table12Row = tuple[str, AttackOutcome, AttackOutcome]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# Tables I/II: one campaign, two metric views


def table12_rows(result: CampaignResult) -> list[Table12Row]:
    """``(benchmark, M4 outcome, M6 outcome)`` per Tables I/II design,
    in campaign order."""
    runs = {(r.cell.benchmark, r.cell.split_layer): r.run for r in result.cells}
    names = dict.fromkeys(r.cell.benchmark for r in result.cells)
    return [(name, runs[name, 4], runs[name, 6]) for name in names]


def render_table1(rows: list[Table12Row]) -> str:
    """Table I: key logical/physical and regular CCR at M4 and M6."""
    metrics = ("key_logical", "key_physical", "regular")
    header = ["bench"]
    for split in ("M4", "M6"):
        header += [f"{split} key log", f"{split} key phy", f"{split} regular"]

    def ccrs(run: AttackOutcome) -> tuple[float, ...]:
        return tuple(getattr(run.ccr, f"{metric}_ccr") for metric in metrics)

    body = []
    for name, m4, m6 in rows:
        row = [name]
        for paper, run in zip(PAPER_TABLE1[name], (m4, m6)):
            row += [paper_vs_measured(p, round(v)) for p, v in zip(paper, ccrs(run))]
        body.append(row)
    average = [AVERAGE]
    for index in (1, 2):
        for column, metric in enumerate(metrics):
            measured = _mean(ccrs(row[index])[column] for row in rows)
            paper = PAPER_TABLE1_AVERAGES[metric][index - 1]
            average.append(paper_vs_measured(paper, round(measured)))
    body.append(average)
    return render_table(
        "Table I: CCR (%) for ITC'99, split at M4 / M6 (paper / measured)",
        header,
        body,
        note="paper's b17/M4 attack timed out after 72h (NA)",
    )


def render_table2(rows: list[Table12Row], hd_patterns: int) -> str:
    """Table II: HD and OER at M4 and M6 over *hd_patterns* runs."""
    header = ["bench", "M4 HD", "M4 OER", "M6 HD", "M6 OER"]
    body = []
    for name, m4, m6 in rows:
        row = [name]
        for paper, run in zip(PAPER_TABLE2[name], (m4, m6)):
            row += [
                paper_vs_measured(paper[0], round(run.hd_oer.hd_percent)),
                paper_vs_measured(paper[1], round(run.hd_oer.oer_percent)),
            ]
        body.append(row)
    average = [AVERAGE]
    for index in (1, 2):
        hd = _mean(row[index].hd_oer.hd_percent for row in rows)
        oer = _mean(row[index].hd_oer.oer_percent for row in rows)
        average += [
            paper_vs_measured(PAPER_TABLE2_AVERAGES["hd"][index - 1], round(hd)),
            paper_vs_measured(PAPER_TABLE2_AVERAGES["oer"][index - 1], round(oer)),
        ]
    body.append(average)
    return render_table(
        f"Table II: HD and OER (%) over {hd_patterns} simulation "
        "runs (paper / measured; paper used 1M)",
        header,
        body,
    )


# ---------------------------------------------------------------------------
# Table III: prior art vs the proposed lock

Table3Grid = dict[str, dict[str, tuple[float, float, float, float]]]


def table3_grid(result: AttackCampaignResult) -> Table3Grid:
    """``{benchmark: {scheme: (PNR, CCR, HD, OER)}}`` of a Table III run.

    CCR is the physical CCR over each scheme's protected nets: the nets
    a defense hid, or the proposed lock's key-nets.
    """
    grid: Table3Grid = {}
    for cell_result in result.cells:
        acell, outcome = cell_result.cell, cell_result.outcome
        if acell.defense is None:
            scheme, ccr = "proposed", outcome.ccr.key_physical_ccr
        else:
            scheme = TABLE_III_DEFENSES[acell.defense.name]
            ccr = outcome.diagnostics["defense"]["protected_ccr"]
        grid.setdefault(acell.cell.benchmark, {})[scheme] = (
            outcome.pnr.pnr_percent,
            ccr,
            outcome.hd_oer.hd_percent,
            outcome.hd_oer.oer_percent,
        )
    return grid


def table3_averages(grid: Table3Grid, scheme: str) -> tuple[float, ...]:
    """One scheme's (PNR, CCR, HD, OER) averaged over the designs."""
    rows = [grid[name][scheme] for name in grid]
    return tuple(_mean(row[i] for row in rows) for i in range(4))


def render_table3(grid: Table3Grid) -> str:
    """Table III: each scheme's averages next to the paper's."""
    header = ["scheme", "PNR (paper/ours)", "CCR", "HD", "OER"]
    body = []
    for scheme, paper in PAPER_TABLE3_AVERAGES.items():
        ours = table3_averages(grid, scheme)
        body.append(
            [
                scheme,
                f"{paper[0] if paper[0] is not None else 'NA'} / {ours[0]:.1f}",
                f"{paper[1]} / {ours[1]:.1f}",
                f"{paper[2]} / {ours[2]:.1f}",
                f"{paper[3]} / {ours[3]:.1f}",
            ]
        )
    return render_table(
        f"Table III (averages over {', '.join(grid)}; split M4)",
        header,
        body,
        note="CCR = physical CCR over each scheme's protected nets",
    )


# ---------------------------------------------------------------------------
# Fig. 5: layout cost

Fig5Data = dict[str, dict[str, dict[str, float]]]


def render_fig5(data: Fig5Data) -> str:
    """Fig. 5's cost deltas, then the isolated cost of lifting.

    The lifting table (final split vs Prelift) is the paper's causal
    claim ("lifting of key-nets enforces some re-routing ..."); the
    difference cancels the die-shrink wire shortening that the scaled
    benchmarks couple into every absolute power number.
    """
    header = ["stage", "metric", "paper avg", "ours median", "ours min..max"]
    body = []
    for stage in ("prelift", "M4", "M6"):
        for metric in ("area", "power", "timing"):
            column = [data[name][stage][metric] for name in data]
            body.append(
                [
                    stage,
                    metric,
                    f"{PAPER_FIG5[stage][metric]:+.1f}",
                    f"{statistics.median(column):+.1f}",
                    f"{min(column):+.1f} .. {max(column):+.1f}",
                ]
            )
    lift_rows = []
    for stage in ("M4", "M6"):
        paper = PAPER_FIG5[stage]["power"] - PAPER_FIG5["prelift"]["power"]
        ours = statistics.median(
            data[name][stage]["power"] - data[name]["prelift"]["power"]
            for name in data
        )
        lift_rows.append([stage, f"{paper:+.1f}", f"{ours:+.1f}"])
    return "\n\n".join(
        (
            render_table(
                "Fig. 5: layout cost (%) vs unprotected baseline "
                "(key prorated to the paper's key:gate ratio)",
                header,
                body,
            ),
            render_table(
                "Lifting power cost over Prelift (pp)",
                ["split", "paper", "ours median"],
                lift_rows,
                note="M4 must cost more than M6 (shallow lift disturbs busy metal)",
            ),
        )
    )
