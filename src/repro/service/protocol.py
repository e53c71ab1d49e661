"""The ``repro.service/1`` wire protocol: request validation + identity.

Every submission is normalized to a canonical ``(kind, spec)`` pair before
anything else happens; the sha256 of that canonical form is the job id, so
two equivalent submissions — same scenario and seed, same workload written
with defaults spelled out or omitted — collapse onto one job (the dedup
guarantee documented in docs/service.md).  Validation failures raise
one-line :class:`ValueError`\\ s, which the daemon maps to HTTP 400.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.hashing import digest

#: Protocol schema tag carried by every request and response.
SCHEMA = "repro.service/1"

#: Request kinds the daemon accepts.  ``chaos`` is only admitted when the
#: daemon was started with ``allow_chaos`` (test/soak rigs).
KINDS = ("workload", "sweep", "scenario", "chaos")

#: Event types a job stream can carry, in lifecycle order.
EVENTS = ("queued", "admitted", "started", "progress", "done", "failed",
          "cancelled")

#: Figure arguments a scenario submission may carry in ``params`` (positive
#: integers), for the figures whose table entry takes them.
SCENARIO_PARAMS = ("limit",)

#: Upper bound on a submission body; a client sending more is misbehaving.
MAX_BODY_BYTES = 1 << 20


@dataclass(frozen=True)
class JobRequest:
    """One validated submission: a tenant asking for a canonical job."""

    tenant: str
    kind: str
    spec: dict[str, Any]

    @property
    def job_id(self) -> str:
        return request_fingerprint(self.kind, self.spec)


def request_fingerprint(kind: str, spec: dict[str, Any]) -> str:
    """Canonical content id of one job: what dedup keys on.

    The tenant is deliberately excluded — two tenants asking the same
    question share one simulation.
    """
    return digest({"kind": kind, "spec": spec})


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _opt_int(spec: dict, key: str, *, minimum: int | None = None):
    value = spec.get(key)
    if value is None:
        return None
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{key} must be an integer, got {value!r}")
    if minimum is not None:
        _require(value >= minimum, f"{key} must be >= {minimum}, got {value}")
    return value


def _opt_str(spec: dict, key: str, choices=None):
    value = spec.get(key)
    if value is None:
        return None
    _require(isinstance(value, str), f"{key} must be a string, got {value!r}")
    if choices is not None:
        _require(value in choices,
                 f"unknown {key} {value!r}; choose from {sorted(choices)}")
    return value


def _backend_slot(spec: dict) -> None:
    """The wire spec's ``backend`` value: always null.  The key is a format
    constant of repro.service/1 (job ids hash over it), so it stays in the
    normalised spec; the option it carried was removed with the second
    simulator core."""
    _require(spec.get("backend") in (None, "reference"),
             f"the backend option was removed (got {spec.get('backend')!r}): "
             "the simulator has one core and results are unchanged; "
             "drop the key")
    return None


def _app_list(value, what: str) -> list[str]:
    from repro.workloads import APP_NAMES

    _require(isinstance(value, (list, tuple)) and value,
             f"{what} must be a non-empty list of app names")
    apps = []
    for a in value:
        _require(isinstance(a, str) and a in APP_NAMES,
                 f"unknown app {a!r} in {what}; choose from {APP_NAMES}")
        apps.append(a)
    return apps


def _run_options(spec: dict) -> dict[str, Any]:
    """Validate the knobs shared by workload and sweep specs."""
    from repro.harness.parallel import POLICIES

    return {
        "cycles": _opt_int(spec, "cycles", minimum=1),
        "seed": _opt_int(spec, "seed"),
        "policy": _opt_str(spec, "policy", choices=POLICIES),
        "backend": _backend_slot(spec),
    }


def _normalize_workload(spec: dict) -> dict[str, Any]:
    out = _run_options(spec)
    out["apps"] = _app_list(spec.get("apps"), "apps")
    return out


def _normalize_sweep(spec: dict) -> dict[str, Any]:
    out = _run_options(spec)
    workloads = spec.get("workloads")
    _require(isinstance(workloads, (list, tuple)) and workloads,
             "workloads must be a non-empty list of app lists")
    out["workloads"] = [
        _app_list(w, f"workloads[{i}]") for i, w in enumerate(workloads)
    ]
    return out


def _normalize_scenario(spec: dict) -> dict[str, Any]:
    from repro.figure_table import FIGURE_TABLE

    name = _opt_str(spec, "name", choices=FIGURE_TABLE)
    sid = _opt_str(spec, "id")
    _require(name is not None or sid is not None,
             "scenario spec needs a registered name or a scenario id")
    if sid is not None:
        _require(len(sid) >= 4 and all(c in "0123456789abcdef" for c in sid),
                 f"scenario id must be >= 4 hex chars, got {sid!r}")
    params = spec.get("params") or {}
    _require(isinstance(params, dict), "params must be an object")
    # A bare id is checked once resolved: run_figure rejects what the
    # figure does not take.
    takes = [k for k in SCENARIO_PARAMS
             if name is None or k in dict(FIGURE_TABLE[name].args)]
    for key in params:
        _require(key in takes,
                 f"unsupported scenario param {key!r} for {name or 'an id'} "
                 f"(it takes: {', '.join(takes) or 'none'})")
    return {
        "name": name,
        "id": sid,
        "seed": _opt_int(spec, "seed"),
        "backend": _backend_slot(spec),
        "params": {k: _opt_int(params, k, minimum=1) for k in sorted(params)},
    }


def _normalize_chaos(spec: dict) -> dict[str, Any]:
    from repro.faults import chaos as ch

    modes = (ch.MODE_OK, ch.MODE_RAISE, ch.MODE_EXIT, ch.MODE_BAD_RESULT,
             ch.MODE_FLAKY)
    jobs = spec.get("jobs")
    _require(isinstance(jobs, (list, tuple)) and jobs,
             "chaos spec needs a non-empty jobs list")
    out_jobs = []
    for i, job in enumerate(jobs):
        _require(isinstance(job, dict), f"jobs[{i}] must be an object")
        mode = job.get("mode", ch.MODE_OK)
        _require(mode in modes,
                 f"jobs[{i}]: unknown chaos mode {mode!r} "
                 f"(hang is not servable; choose from {sorted(modes)})")
        out_jobs.append({
            "mode": mode,
            "payload": _opt_int(job, "payload") or 0,
            "flaky_failures": _opt_int(job, "flaky_failures", minimum=1) or 1,
        })
    return {
        "jobs": out_jobs,
        "retries": _opt_int(spec, "retries", minimum=0) or 0,
    }


_NORMALIZERS = {
    "workload": _normalize_workload,
    "sweep": _normalize_sweep,
    "scenario": _normalize_scenario,
    "chaos": _normalize_chaos,
}


def parse_submit(payload: Any, *, allow_chaos: bool = False) -> JobRequest:
    """Validate one submission body into a canonical :class:`JobRequest`."""
    _require(isinstance(payload, dict), "submission body must be an object")
    schema = payload.get("schema", SCHEMA)
    _require(schema == SCHEMA,
             f"unsupported schema {schema!r}; this daemon speaks {SCHEMA}")
    tenant = payload.get("tenant", "default")
    _require(isinstance(tenant, str) and 0 < len(tenant) <= 64,
             "tenant must be a short non-empty string")
    kind = payload.get("kind")
    _require(kind in KINDS,
             f"unknown kind {kind!r}; choose from {list(KINDS)}")
    if kind == "chaos" and not allow_chaos:
        raise ValueError(
            "chaos submissions are disabled (start the daemon with "
            "--allow-chaos)"
        )
    spec = payload.get("spec")
    _require(isinstance(spec, dict), "spec must be an object")
    return JobRequest(tenant=tenant, kind=kind, spec=_NORMALIZERS[kind](spec))


def event(kind: str, **fields: Any) -> dict[str, Any]:
    """Build one stream event record."""
    assert kind in EVENTS, kind
    rec = {"event": kind}
    rec.update(fields)
    return rec
