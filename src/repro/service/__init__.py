"""Campaign service: the runner as a long-lived multi-tenant job server.

``python -m repro.runner serve`` wraps the exact stage/cache interface
of :mod:`repro.runner` in an asyncio HTTP service (stdlib only — no
framework dependency): clients POST :class:`~repro.runner.spec.
CampaignSpec` / ``AttackCampaignSpec`` JSON envelopes to ``/jobs``, get
job ids back, and stream per-cell results as NDJSON while the cells run
on a shared long-lived :class:`~repro.runner.engine.CampaignExecutor`
worker pool.  Identical cells submitted by concurrent clients are
deduplicated through an in-flight table keyed by the artifact cache's
content keys — each unique cell is computed exactly once and served to
every waiter — and the on-disk cache makes completed cells free across
restarts.

Layers:

* :mod:`repro.service.config`  — ``REPRO_SERVICE_*`` knob resolution;
* :mod:`repro.service.jobs`    — job state machine, in-flight dedupe;
* :mod:`repro.service.metrics` — the ``/metrics`` counters;
* :mod:`repro.service.server`  — the asyncio HTTP front end;
* :mod:`repro.service.client`  — thin stdlib client (tests, CI, CLI);
* :mod:`repro.service.verify`  — CI service-verification layer: proves
  the HTTP path bit-identical to the ``python -m repro.runner`` CLI;
* :mod:`repro.service.stress`  — concurrent duplicate-submission
  stress (the CI ``cache-stress`` job).
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.config import ServiceConfig
from repro.service.jobs import InvalidTransition, Job, JobManager, JobState
from repro.service.metrics import ServiceMetrics
from repro.service.server import CampaignService, ServiceThread, serve_forever

__all__ = [
    "CampaignService",
    "InvalidTransition",
    "Job",
    "JobManager",
    "JobState",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceMetrics",
    "ServiceThread",
    "serve_forever",
]
