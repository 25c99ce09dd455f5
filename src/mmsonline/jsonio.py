"""JSON (de)serialization.

Rationals travel as ``"num/den"`` strings so nothing is ever rounded.  The
instance schema is::

    { "n": int, "m": int, "types": [ [ "num/den", ... ] x k ],
      "names": [str]            (optional)
      "mms": [ "num/den", ... ]                 (optional, with "witnesses")
      "witnesses": [ [ [item, ...] x n ] x k ]  (optional: share partitions)
      "zeroMmsTypes": [int]                     (optional, with the pair) }

The optional mms/witnesses pair lets generated constructions ship their
known share partitions, so runs on them never need the exact solver; a
share key without the whole pair is refused.  With the pair, the ``types``
rows are the normalized rows: every witness bundle of a positive-share type
is worth exactly 1.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .core import (
    Allocation,
    Bundle,
    InputError,
    Instance,
    NormalizedInstance,
    TrialReport,
    TypeDistribution,
    as_fraction,
    normalize,
)


def frac_to_str(x: Fraction) -> str:
    x = as_fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _json_int(x, what: str) -> int:
    """``x`` if it is a JSON integer; a float, string or true/false is an input error."""
    if type(x) is not int:
        raise InputError(f"{what} must be an integer, got {x!r}")
    return x


def instance_to_obj(instance: Instance, norm: NormalizedInstance | None = None) -> dict:
    obj: dict[str, Any] = {
        "n": instance.n_agents,
        "m": instance.m_items,
        "types": [[frac_to_str(v) for v in row] for row in instance.type_values],
    }
    if instance.type_names is not None:
        obj["names"] = list(instance.type_names)
    if norm is not None:
        obj["mms"] = [frac_to_str(v) for v in norm.original_mms]
        obj["witnesses"] = [[list(b) for b in part] for part in norm.witness_partitions]
        if norm.zero_mms_types:
            obj["zeroMmsTypes"] = sorted(norm.zero_mms_types)
    return obj


def instance_from_obj(obj: dict) -> Instance:
    try:
        inst = Instance(_json_int(obj["n"], "n"), obj["types"], tuple(obj["names"]) if "names" in obj else None)
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed instance object: {exc}") from exc
    if "m" in obj and _json_int(obj["m"], "m") != inst.m_items:
        raise InputError("declared m disagrees with the value rows")
    return inst


def normalized_from_obj(obj: dict) -> NormalizedInstance | None:
    """The embedded normalized view, if the object carries share partitions;
    ``"mms"``, ``"witnesses"`` or ``"zeroMmsTypes"`` without both of the first
    two is an input error, not an instance left to the solver."""
    if "mms" not in obj or "witnesses" not in obj:
        if "mms" in obj or "witnesses" in obj or "zeroMmsTypes" in obj:
            missing = " and ".join(key for key in ("mms", "witnesses") if key not in obj)
            raise InputError(f"share partitions given without {missing}")
        return None
    inst = instance_from_obj(obj)
    try:
        witnesses = tuple(
            tuple(Bundle(tuple(_json_int(g, "witness item") for g in b)) for b in part)
            for part in obj["witnesses"]
        )
        mms = tuple(as_fraction(v) for v in obj["mms"])
        zero = frozenset(_json_int(i, "zeroMmsTypes entry") for i in obj.get("zeroMmsTypes", ()))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed share partitions: {exc}") from exc
    return NormalizedInstance(inst, mms, witnesses, zero)


def load_normalized(obj: dict) -> NormalizedInstance:
    """An instance object's normalized view: its embedded share partitions
    when it carries them, otherwise solved with :func:`normalize`."""
    norm = normalized_from_obj(obj)
    return norm if norm is not None else normalize(instance_from_obj(obj))


def distribution_to_obj(dist: TypeDistribution) -> dict:
    return {"probs": [frac_to_str(p) for p in dist.original_probs()]}


def distribution_from_obj(obj: dict) -> TypeDistribution:
    try:
        return TypeDistribution.from_probs(obj["probs"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed distribution object: {exc}") from exc


def sequence_from_obj(obj: dict) -> list[int]:
    try:
        return [_json_int(t, "arrival type id") for t in obj["sequence"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed arrival sequence object: {exc}") from exc


def allocation_to_obj(allocation: Allocation) -> dict:
    return {
        "entries": [
            {"agent": a, "type": t, "items": list(b)} for a, t, b in allocation.entries
        ]
    }


def report_to_obj(report: TrialReport) -> dict:
    obj: dict[str, Any] = {
        "perAgentRatio": [frac_to_str(r) for r in report.per_agent_ratio],
        "minRatio": frac_to_str(report.min_ratio),
        "alpha": frac_to_str(report.alpha),
        "succeededAtAlpha": report.succeeded_at_alpha,
        "failureReason": report.failure_reason.value,
    }
    if report.flags:
        obj["flags"] = list(report.flags)
    if report.details is not None:
        obj["details"] = report.details
    if report.step_trace is not None:
        obj["trace"] = report.step_trace
    return obj


def load(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def canonical_json(obj) -> str:
    """Deterministic rendering: sorted keys, no whitespace, no timestamps."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
