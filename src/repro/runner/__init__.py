"""Campaign runner: declarative experiment grids, parallel and cached.

The subsystem behind every table/figure harness and the
``python -m repro.runner`` CLI:

* :mod:`repro.runner.spec`     — declarative campaign/cell specs;
* :mod:`repro.runner.stages`   — pure, cacheable pipeline stages;
* :mod:`repro.runner.engine`   — result types and the worker pool;
* :mod:`repro.runner.profiles` — the paper's budgets vs the scaled default;
* :mod:`repro.runner.cli`      — table/figure regeneration and sweeps.
"""

from repro.runner.engine import (
    AttackCampaignResult,
    AttackCellResult,
    CampaignExecutor,
    CampaignResult,
    CellResult,
    default_workers,
    run_attack_campaign,
    run_campaign,
    run_cost_campaign,
)
from repro.runner.serialize import (
    attack_record,
    canonical_json,
    cell_record,
    result_record,
)
from repro.runner.profiles import (
    ExperimentProfile,
    attack_smoke_campaign,
    current_profile,
    defense_smoke_campaign,
    prorated_key_bits,
    smoke_campaign,
)
from repro.runner.spec import (
    AttackCampaignSpec,
    AttackCellSpec,
    CampaignSpec,
    CellSpec,
    expand,
    expand_attack,
    parse_benchmark,
    parse_spec_payload,
    proximity_cell,
    spec_payload,
)
from repro.runner.stages import (
    LockedDesign,
    cell_attack,
    cell_defense,
    cell_layout,
    layout_cost_runs,
    locked_design,
    unprotected_layout,
)

__all__ = [
    "AttackCampaignResult",
    "AttackCampaignSpec",
    "AttackCellResult",
    "AttackCellSpec",
    "CampaignExecutor",
    "CampaignResult",
    "CampaignSpec",
    "CellResult",
    "CellSpec",
    "ExperimentProfile",
    "LockedDesign",
    "attack_record",
    "attack_smoke_campaign",
    "canonical_json",
    "cell_attack",
    "cell_defense",
    "cell_layout",
    "cell_record",
    "current_profile",
    "default_workers",
    "defense_smoke_campaign",
    "expand",
    "expand_attack",
    "layout_cost_runs",
    "locked_design",
    "parse_benchmark",
    "parse_spec_payload",
    "prorated_key_bits",
    "proximity_cell",
    "result_record",
    "run_attack_campaign",
    "run_campaign",
    "run_cost_campaign",
    "smoke_campaign",
    "spec_payload",
    "unprotected_layout",
]
