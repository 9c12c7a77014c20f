"""Enumeration caps and the check record.

All enumerations in the library are guarded by an object cap so that a typo
in a size parameter fails fast instead of running for hours.  The default cap
can be overridden per call or globally through the ``SANDPILE_MAX_OBJECTS``
environment variable.

Every identity or conjecture test reports one `Check`: a named statement,
whether it holds, and optional detail.  Conjectural checks are reported and
never count as failures.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ResourceLimit

DEFAULT_MAX_OBJECTS = 10**8

ENV_MAX_OBJECTS = "SANDPILE_MAX_OBJECTS"


def object_cap(override: int | None = None) -> int:
    """Effective enumeration cap: explicit override, else env var, else default."""
    if override is not None:
        if override < 1:
            raise ValueError("object cap must be >= 1")
        return override
    env = os.environ.get(ENV_MAX_OBJECTS)
    if env is None:
        return DEFAULT_MAX_OBJECTS
    try:
        cap = int(env)
    except ValueError:
        cap = 0  # rejected below together with the values under 1
    if cap < 1:
        raise ValueError(f"{ENV_MAX_OBJECTS} must be an integer >= 1, got {env!r}")
    return cap


def guard_count(
    count: int, max_objects: int | None, what: str, unit: str = "objects", at_least: bool = False
) -> int:
    """Raise ResourceLimit when a computation of `count` units (objects
    enumerated, or cells held) exceeds the cap.  With `at_least`, `count` is
    a lower bound on the cost, and the message says so."""
    cap = object_cap(max_objects)
    if count > cap:
        bound = "at least " if at_least else ""
        raise ResourceLimit(f"{what}: {bound}{count} {unit} exceeds cap {cap}")
    return count


@dataclass(frozen=True)
class Check:
    """Outcome of one verification; a conjecture is reported, never asserted."""

    name: str
    holds: bool
    detail: str = ""
    conjecture: bool = False

    def to_json(self) -> dict:
        out: dict = {"name": self.name, "holds": self.holds}
        if self.detail:
            out["detail"] = self.detail
        if self.conjecture:
            out["conjecture"] = True
        return out
