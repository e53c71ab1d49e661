"""Declarative scenario registry.

A :class:`ScenarioSpec` names everything that determines a figure
driver's output — workload set, policy, fault/arrival configuration,
seeds, cycle budget, and driver-specific parameters — and
derives a canonical sha256 **scenario id** from it.  Two runs that should
produce the same science get the same id; changing any field changes the
id (enforced by a hypothesis test).  Seed *order* is immaterial: seeds
are a set of replications, so they are sorted before hashing.

The module-level :data:`SCENARIOS` registry maps each figure of
:data:`repro.figure_table.FIGURE_TABLE` to the builder that turns its
arguments into a spec — the one ``run_figure`` uses, so ``repro fig2
--store …`` and programmatic use agree on identity.  Specs are data, not
behaviour: the driver still runs through :mod:`repro.harness.experiments`;
the spec only fixes *which* experiment the resulting record claims to be.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Any, Callable, Mapping

from repro.figure_table import FIGURE_TABLE, figure
from repro.hashing import digest

#: Schema tag for the canonical scenario dict embedded in records.
SCENARIO_SCHEMA = "repro.store.scenario/1"


def _tuplize(value: Any) -> Any:
    """Recursively freeze lists into tuples so specs stay hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_tuplize(v) for v in value)
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, hashable experiment identity.

    ``params`` holds driver-specific knobs (e.g. fig8b's SM-count sweep
    axis, churn rates) as a sorted tuple of ``(key, value)`` pairs so
    construction order never leaks into the id.
    """

    name: str
    kind: str
    workloads: tuple[tuple[str, ...], ...] = ()
    policy: str | None = None
    faults: tuple[float, ...] = ()
    arrivals: tuple[float, ...] = ()
    seeds: tuple[int, ...] = ()
    cycles: int | None = None
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", _tuplize(self.workloads))
        object.__setattr__(self, "faults", _tuplize(self.faults))
        object.__setattr__(self, "arrivals", _tuplize(self.arrivals))
        object.__setattr__(self, "seeds", _tuplize(self.seeds))
        params = self.params
        if isinstance(params, Mapping):
            params = tuple(sorted(params.items()))
        else:
            params = tuple(sorted(_tuplize(params)))
        object.__setattr__(self, "params", params)

    # ----------------------------------------------------------- identity

    def canonical(self) -> dict[str, Any]:
        """The canonical dict the scenario id is hashed over.  Seeds are
        sorted (replication sets, not sequences); params were sorted at
        construction time."""
        return {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "kind": self.kind,
            "workloads": [list(w) for w in self.workloads],
            "policy": self.policy,
            "faults": list(self.faults),
            "arrivals": list(self.arrivals),
            # Format constant of repro.store.scenario/1: the removed backend
            # option's slot stays null so every recorded id is unchanged.
            "backend": None,
            "seeds": sorted(self.seeds),
            "cycles": self.cycles,
            "params": [[k, v] for k, v in self.params],
        }

    @staticmethod
    def id_of(canonical_dict: Mapping[str, Any]) -> str:
        """sha256 of a canonical scenario dict (seeds re-sorted so dicts
        from foreign sources hash identically to native specs)."""
        d = dict(canonical_dict)
        d.setdefault("schema", SCENARIO_SCHEMA)
        if isinstance(d.get("seeds"), (list, tuple)):
            d["seeds"] = sorted(d["seeds"])
        return digest(d)

    def scenario_id(self) -> str:
        return self.id_of(self.canonical())

    # --------------------------------------------------------- derivation

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """The single-replication variant of this spec."""
        return replace(self, seeds=(seed,))

    @classmethod
    def from_canonical(cls, d: Mapping[str, Any]) -> "ScenarioSpec":
        known = {f.name for f in fields(cls)}
        kwargs = {k: _tuplize(v) for k, v in d.items() if k in known}
        if "params" in kwargs:
            kwargs["params"] = tuple(
                (k, _tuplize(v)) for k, v in kwargs["params"]
            )
        return cls(**kwargs)


def scenario_for(
    name: str,
    seed: int | None = None,
    **kwargs: Any,
) -> ScenarioSpec:
    """The spec a run of figure ``name`` with arguments ``kwargs`` records.

    Unknown drivers or arguments raise a one-line :class:`ValueError` (the
    inspect error contract — callers surface it verbatim).
    """
    return figure(name).resolve(seed, kwargs)[2]


#: Figure-driver registry: name → builder(seed, **kwargs) → spec.
SCENARIOS: dict[str, Callable[..., ScenarioSpec]] = {
    name: partial(scenario_for, name) for name in FIGURE_TABLE
}

#: The typed payload schema each figure driver's record carries.
PAYLOAD_SCHEMAS: dict[str, str] = {
    name: fig.schema for name, fig in FIGURE_TABLE.items()
}
