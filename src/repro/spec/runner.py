"""Execute a run spec: expand, fan cells out, fold outcomes into a table.

:func:`run_spec` is the one executor behind ``repro run spec.yaml`` and the
paper runners that emit specs (``docs/SPECS.md`` lists them):

* the plan's cells run through :func:`repro.parallel.run_cells` under the
  spec's name as the determinism label, so each cell's derived seed
  depends only on that name and the cell's position, never on the jobs
  count;
* with ``telemetry_dir`` set, the whole sweep lands in one schema-valid
  telemetry run whose manifest carries the expanded plan — including every
  variant's fully-resolved post-override config — under the ``spec`` key.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple, Union

from .model import RunPlan, RunSpec, SpecError, expand_spec, load_spec
from .protocols import CellContext


def resolve_profile(profile=None, spec_profile: Optional[str] = None):
    """Resolve the effective profile: argument > spec > environment.

    ``profile`` may be a :class:`~repro.experiments.profiles.Profile`
    instance (used as-is) or a profile name; ``spec_profile`` is the name a
    spec carries, if any.
    """
    from ..experiments.profiles import PROFILES, Profile, current_profile

    choice = profile if profile is not None else spec_profile
    if choice is None:
        return current_profile()
    if isinstance(choice, Profile):
        return choice
    try:
        return PROFILES[str(choice).lower()]
    except KeyError:
        raise SpecError(
            f"unknown profile {choice!r}; available: {sorted(PROFILES)}"
        ) from None


def _execute_plan(plan: RunPlan, jobs: Optional[int]):
    from ..experiments.results import ExperimentTable
    from ..parallel import run_cells

    protocol = plan.protocol
    table = ExperimentTable(
        name=plan.title,
        rows=[variant.label for variant in plan.variants],
        columns=list(plan.columns),
    )
    for row, column, mark in plan.marks:
        table.mark(row, column, mark)

    ctx = CellContext(
        spec_name=plan.spec.name, profile=plan.profile, prefix=protocol.cache_prefix
    )

    def run_cell(cell: Tuple[int, str, int]):
        vi, dataset, seed = cell
        return protocol.cell(plan.variants[vi], dataset, seed, ctx)

    outcomes = run_cells(list(plan.cells), run_cell, jobs=jobs, label=plan.spec.name)

    grouped: dict = {}
    for (vi, dataset, _seed), outcome in zip(plan.cells, outcomes):
        grouped.setdefault((vi, dataset), []).append(outcome)
    for (vi, dataset), results in grouped.items():
        row = plan.variants[vi].label
        columns = plan.dataset_columns(dataset)
        values = [value for status, value in results if status == "ok"]
        if any(status == "oom" for status, _ in results) or not values:
            for column in columns:
                table.mark(row, column, "OOM")
            continue
        if protocol.metric_suffixes:
            for column, metric_values in zip(columns, zip(*values)):
                table.set(row, column, list(metric_values))
        else:
            table.set(row, dataset, values)
    return table


def run_spec(
    spec: Union[RunSpec, str, Path],
    *,
    profile=None,
    jobs: Optional[int] = None,
    telemetry_dir: Optional[Union[str, Path]] = None,
):
    """Run a spec (object or file path) and return its ``ExperimentTable``.

    When ``telemetry_dir`` is given the sweep records into one run under
    ``telemetry_dir/<run_id>/`` whose manifest includes the expanded plan
    (``spec`` key, with per-variant resolved configs); the run id is
    attached to the returned table as ``table.run_id``.
    """
    if isinstance(spec, (str, Path)):
        spec = load_spec(spec)
    resolved_profile = resolve_profile(profile, spec.profile)
    plan = expand_spec(spec, resolved_profile)

    if telemetry_dir is None:
        return _execute_plan(plan, jobs)

    from ..obs import telemetry_run

    with telemetry_run(
        telemetry_dir,
        method=spec.name,
        dataset=",".join(plan.datasets),
        seed=plan.seeds[0] if plan.seeds else 0,
        config=None,
        extra={"spec": plan.manifest()},
    ) as recorder:
        table = _execute_plan(plan, jobs)
    table.run_id = recorder.run_id
    return table


def render_plan(plan: RunPlan) -> str:
    """A human-readable expansion of the plan (``repro run --dry-run``)."""
    lines = [
        f"spec {plan.spec.name} ({plan.spec.protocol}, profile {plan.profile.name})",
        f"  datasets: {', '.join(plan.datasets)}",
        f"  seeds:    {', '.join(str(seed) for seed in plan.seeds)}",
        f"  variants ({len(plan.variants)}):",
    ]
    from ..registry import config_dict

    for variant in plan.variants:
        kind = "supervised" if variant.supervised else "ssl"
        lines.append(f"    {variant.label}  [{variant.method}, {kind}]")
        resolved = config_dict(variant.config)
        if resolved:
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(resolved.items()))
            lines.append(f"      config: {rendered}")
    lines.append(f"  cells: {len(plan.cells)}")
    if plan.marks:
        lines.append(
            "  pre-marked: "
            + "; ".join(f"{row} x {column} -> {mark}" for row, column, mark in plan.marks)
        )
    return "\n".join(lines)


__all__ = [
    "render_plan",
    "resolve_profile",
    "run_spec",
]
