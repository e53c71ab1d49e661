"""Shared figure-driver dispatch for the CLI and the service layer.

:func:`run_figure` executes one entry of :data:`repro.figure_table.
FIGURE_TABLE` and returns a :class:`FigureRun` — the typed payload, the
:class:`~repro.store.ScenarioSpec` built from the same resolved inputs the
driver ran on, and the rendered text table.  :func:`record_figure` writes
that payload into a :class:`~repro.store.ResultStore` under that identity,
exactly the way the figure drivers' ``--store`` flag does.

``repro fig*`` and ``repro serve`` both go through these two functions, so a
scenario submitted over the service API produces the same ``record_id`` as
the direct CLI path — the store's hash addressing makes that a checkable
guarantee rather than a convention (see tests/test_service.py and the CI
``service-smoke`` job).  :func:`claim_rows` reads the store back: the
table's claims against the newest record of each entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.figure_table import FIGURE_TABLE, figure

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.store.registry import ScenarioSpec

#: Figure drivers runnable through :func:`run_figure`.
FIGURES: tuple[str, ...] = tuple(FIGURE_TABLE)


@dataclass(frozen=True)
class FigureRun:
    """One executed figure driver: payload + scenario identity + rendering.

    ``payload`` is the JSON-safe dict that ``--store`` records; ``spec``
    is the identity of the inputs the driver ran on; ``provenance`` names
    the config it ran on; ``result`` keeps the live result object for
    callers that export richer artifacts.
    """

    name: str
    payload: dict[str, Any]
    spec: "ScenarioSpec"
    rendered: str
    provenance: dict[str, Any]
    result: Any = field(default=None, compare=False, repr=False)


def run_figure(
    name: str,
    *,
    seed: int | None = None,
    limit: int | None = None,
    jobs: int | None = None,
    cache_dir: str | None = None,
    **driver_kw: Any,
) -> FigureRun:
    """Run figure driver ``name`` and return its :class:`FigureRun`.

    ``limit`` and ``driver_kw`` are the figure's own arguments
    (fig-degradation's ``pair``/``sigmas``, fig-churn's ``base``/``pool``/
    ``rates``/...); None means the default.  Unknown figures and arguments
    raise a one-line :class:`ValueError` (the inspect error contract).
    """
    from repro.harness import scaled_config
    from repro.harness.replay_cache import config_fingerprint

    fig = figure(name)
    given = {k: v for k, v in dict(driver_kw, limit=limit).items()
             if v is not None}
    run_seed, inputs, spec = fig.resolve(seed, given)
    kw = dict(inputs)
    config = None
    if fig.seed_role == "config":
        # Figure drivers default to the GPUConfig seed; --seed pins it.
        if run_seed is not None:
            config = scaled_config(seed=run_seed)
        kw["config"] = config
    else:
        kw["seed"] = run_seed  # the config seed keeps its default
    if fig.sweeps:
        kw.update(jobs=jobs, cache_dir=cache_dir)
    res = fig.driver(**kw)
    return FigureRun(
        name=name, payload=fig.payload(res), spec=spec,
        rendered=fig.render(res), result=res,
        provenance={
            "config_fingerprint": config_fingerprint(
                config or scaled_config()),
        },
    )


def record_figure(store_dir: str, run: FigureRun):
    """Record ``run`` into the store at ``store_dir``.

    Returns ``(record, spec)``.  This is the single recording path shared
    by ``repro fig* --store`` and the service's scenario jobs, so record
    ids are identical whichever entry point produced the payload.
    """
    from repro.store import ResultStore

    rec = ResultStore(store_dir).record(
        run.spec, run.payload, FIGURE_TABLE[run.name].schema,
        provenance=run.provenance,
    )
    return rec, run.spec


def claim_rows(store_dir: str) -> list[tuple[str, ...]]:
    """Paper vs measured from the store at ``store_dir``: one ``(entry,
    claim, paper, measured, wanted, verdict)`` row per claim of every table
    entry that has a record there, read from its newest one."""
    from repro.store import ResultStore

    store = ResultStore(store_dir)
    newest = {  # oldest first, so the last recording wins
        (e.get("scenario_name"), e.get("payload_schema")): e["record_id"]
        for e in store.index()
    }
    rows: list[tuple[str, ...]] = []
    for name, fig in FIGURE_TABLE.items():
        record_id = newest.get((name, fig.schema))
        if record_id is not None and fig.claims:
            payload = store.load(record_id).payload
            rows += [(name, *claim.row(payload)) for claim in fig.claims]
    return rows
