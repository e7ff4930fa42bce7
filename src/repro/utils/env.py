"""Explicit parsing of the ``REPRO_*`` environment knobs.

The experiment harnesses and the campaign runner are configured through
a handful of environment variables.  Parsing lives here so that every
consumer agrees on the semantics — in particular the edge cases that a
``float(os.environ.get(...) or 0) or None`` truthiness chain silently
mangles: an *empty* value means "unset" (fall back to the default),
while an explicit ``0`` is a configuration error that must be reported,
not swallowed into the default.

Knobs:

* ``REPRO_FULL=1``      — full-fidelity experiment profile.
* ``REPRO_SCALE=<f>``   — benchmark scale-factor override (``> 0``).
* ``REPRO_CACHE_DIR``   — artifact-cache directory override.
* ``REPRO_WORKERS``     — default worker count for the campaign runner.
* ``REPRO_ATTACK_SEED``   — default adversary-scenario seed (``0`` is a
  valid seed, unlike the scale knob).
* ``REPRO_ATTACK_BUDGET`` — hypothesis budget for scenario key search
  (``> 0``; an explicit ``0`` is rejected, not treated as unset).
* ``REPRO_ATTACK_ENGINE`` — default attack-engine selection for the
  ``attacks`` campaign CLI (validated against the engine registry by
  :mod:`repro.adversary.scenario`).
* ``REPRO_DEFENSE_SEED``     — default defense-spec seed (``0`` is a
  valid seed; parsed with :func:`env_int` like the attack seed).
* ``REPRO_DEFENSE_FRACTION`` — defense strength override: the fraction
  of candidate nets a defense protects (``0 < f <= 1``; empty = each
  scheme's published default).  Participates in the resolved
  ``DefenseSpec`` and therefore in the defense/attack cache keys.
* ``REPRO_DEFENSE_SCHEME``   — restrict the default defense axis of the
  ``attacks`` campaign CLI to one named defense (validated against the
  defense registry by :mod:`repro.defense.spec`; ``none`` selects the
  undefended baseline only).
* ``REPRO_WORKER_CACHE_MB`` — byte budget (mebibytes) of the
  per-worker in-memory artifact tier (:mod:`repro.runner.worker`),
  default ``256``.  Pool workers pin deserialized locks, layouts and
  defended views in a content-keyed LRU so repeated traffic on hot
  configurations skips re-unpickling (and, cacheless, recomputing)
  them.  ``0`` disables the tier.  The knob is resolved *outside* the
  cache keys: the tier serves the same content-keyed artifacts the
  disk cache would, so its size can never change a result.

Campaign-service knobs (defaults for ``python -m repro.runner serve``,
resolved by :mod:`repro.service.config`; CLI flags override them):

* ``REPRO_SERVICE_HOST``     — bind address (default ``127.0.0.1``).
* ``REPRO_SERVICE_PORT``     — bind port (default ``8321``; ``0`` asks
  the OS for an ephemeral port, so it is parsed with :func:`env_int`,
  not the strictly-positive variant).
* ``REPRO_SERVICE_WORKERS``  — service worker-pool size (``> 0``;
  default: ``REPRO_WORKERS`` semantics, i.e. every available CPU).
* ``REPRO_SERVICE_MAX_JOBS`` — finished-job records retained for
  ``GET /jobs/{id}`` before the oldest are evicted (``> 0``,
  default ``256``).
"""

from __future__ import annotations

import os
from pathlib import Path

_TRUE_VALUES = frozenset({"1", "true", "yes", "on"})
_FALSE_VALUES = frozenset({"0", "false", "no", "off", ""})


def env_flag(name: str, default: bool = False) -> bool:
    """Parse a boolean knob; unset or empty means *default*."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value == "":
        return default
    if value in _TRUE_VALUES:
        return True
    if value in _FALSE_VALUES:
        return False
    raise ValueError(
        f"{name}={raw!r} is not a boolean; use 1/0, true/false, yes/no or on/off"
    )


def env_scale(name: str = "REPRO_SCALE") -> float | None:
    """Parse the benchmark scale override.

    Unset or empty returns ``None`` (each profile's default scale).  A
    present value must parse as a float strictly greater than zero —
    ``REPRO_SCALE=0`` would otherwise silently disable the override,
    which is never what the caller meant.
    """
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return None
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{name}={raw!r} is not a number") from exc
    if value <= 0:
        raise ValueError(
            f"{name}={raw!r} must be > 0; unset it (or leave it empty) "
            "to use each benchmark's default scale"
        )
    return value


def env_int(name: str, default: int | None = None) -> int | None:
    """Parse an integer knob; unset or empty means *default*."""
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name}={raw!r} is not an integer") from exc


def env_positive_int(name: str, default: int | None = None) -> int | None:
    """Parse an integer knob that must be strictly positive when set.

    Unset or empty returns *default*; a present value must parse as an
    int ``> 0`` — an explicit ``0`` (or a negative) is a configuration
    error that is reported, never silently folded into the default.
    """
    value = env_int(name)
    if value is None:
        return default
    if value <= 0:
        raise ValueError(
            f"{name}={os.environ.get(name)!r} must be > 0; unset it (or "
            "leave it empty) to use the default"
        )
    return value


def env_fraction(name: str, default: float | None = None) -> float | None:
    """Parse a fraction knob in ``(0, 1]``; unset or empty means *default*.

    Defense strengths are fractions of a candidate population, so both
    ``0`` (protect nothing — the ``none`` defense expresses that) and
    values above ``1`` are configuration errors reported loudly rather
    than clamped.
    """
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{name}={raw!r} is not a number") from exc
    if not 0.0 < value <= 1.0:
        raise ValueError(
            f"{name}={raw!r} must be a fraction in (0, 1]; unset it (or "
            "leave it empty) to use the default"
        )
    return value


def env_name(
    name: str, choices: tuple[str, ...], default: str | None = None
) -> str | None:
    """Parse an enumerated knob whose "unset" state is meaningful.

    Unset or empty means *default*, which may be ``None``, so callers
    can distinguish "no override configured" from any concrete choice.
    The raw value is validated against *choices* — a typo'd engine name
    fails loudly instead of silently running the default.
    """
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    value = raw.strip().lower()
    if value not in choices:
        raise ValueError(
            f"{name}={raw!r} is not one of {', '.join(sorted(choices))}"
        )
    return value


def env_str(name: str, default: str | None = None) -> str | None:
    """Parse a free-form string knob; unset or empty means *default*."""
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    return raw.strip()


#: Default byte budget of the per-worker artifact tier (mebibytes).
DEFAULT_WORKER_CACHE_MB = 256


def env_worker_cache_mb(name: str = "REPRO_WORKER_CACHE_MB") -> int:
    """Byte budget (MiB) of the worker-resident artifact tier.

    Unset or empty means the default; ``0`` is meaningful (disable the
    tier), so only negative values are configuration errors.
    """
    value = env_int(name)
    if value is None:
        return DEFAULT_WORKER_CACHE_MB
    if value < 0:
        raise ValueError(
            f"{name}={os.environ.get(name)!r} must be >= 0 "
            "(0 disables the worker artifact tier)"
        )
    return value


def env_cache_dir(name: str = "REPRO_CACHE_DIR") -> Path:
    """The artifact-cache directory (override or per-user default)."""
    raw = os.environ.get(name)
    if raw is not None and raw.strip() != "":
        return Path(raw).expanduser()
    return Path.home() / ".cache" / "repro-splitlock"
