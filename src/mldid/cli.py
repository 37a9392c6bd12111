"""Command-line harness: simulate, estimate, benchmark, heterogeneity.

Every flag can also be set through an environment variable with the
``MLDID_<COMMAND>_<FLAG>`` naming (click's auto-envvar mechanism) or a
``key = value`` config file passed as ``--config``. All run outputs land
in ``--out`` together with a JSON manifest sufficient to reproduce the
run; results never depend on ``--threads``.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

import click
import numpy as np

from .drdid import compare_rmse
from .estimator import (
    MIN_BOOTSTRAP_REPLICATES,
    EstimatorConfig,
    attach_bootstrap_se,
    derive_seed,
    multiplier_se,
    run_mldid,
    _SEED_REP,
    _map_tasks,
    _reemit,
)
from .exceptions import MldidError, PanelValidationError
from .heterogeneity import blp, clan
from .learners import check_fixed_l1
from .panel import (
    NEVER_TREATED,
    ColumnSchema,
    load_panel,
    read_catt_panel_csv,
    write_panel_csv,
)
from .report import (
    environment_versions,
    event_study_svg,
    write_benchmark_clan_csv,
    write_blp_avg_csv,
    write_blp_csv,
    write_catt_panel_csv,
    write_cells_csv,
    write_clan_csv,
    write_coverage_csv,
    write_dr_cells_csv,
    write_dynamics_csv,
    write_manifest,
    write_oracle_catt_csv,
    write_oracle_cells_csv,
    write_rmse_csv,
)
from .simulate import (
    ASSIGNMENTS,
    CONFOUNDINGS,
    CHI_CHOICES,
    TAU_SCENARIOS,
    DgpConfig,
    effect_path,
    simulate,
)

# The benchmark's tracer (perfbench/tracing.py) wraps these names in this
# module, so they stay importable here although the DR baseline of a run now
# comes from run_mldid and its SEs from multiplier_se.
from .drdid import estimate_cell_dr  # noqa: F401
from .estimator import bootstrap_se  # noqa: F401
from .panel import slice_two_period  # noqa: F401

EXIT_OK = 0
EXIT_ESTIMATION = 1
EXIT_VALIDATION = 2


def _load_config_defaults(path: str) -> dict:
    """Parse a key = value config file into a per-command default map.

    A key that is a parameter of no command (a typo) is a usage error.
    """
    known = {param.name for cmd in cli.commands.values() for param in cmd.params}
    values: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{line_no}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key.replace("-", "_") not in known:
            raise click.UsageError(f"{path}:{line_no}: unknown key {key!r}")
        values[key.replace("-", "_")] = val
    return {cmd: dict(values) for cmd in
            ("simulate", "estimate", "benchmark", "heterogeneity")}


@click.group()
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Key = value file with flag defaults.")
@click.pass_context
def cli(ctx, config):
    """Staggered difference-in-differences with machine-learned nuisances."""
    if config is not None:
        ctx.default_map = _load_config_defaults(config)


def _dgp_options(f):
    opts = [
        click.option("--n", type=click.IntRange(min=10), default=1000, show_default=True,
                     help="Units in the simulated panel."),
        click.option("--periods", type=click.IntRange(min=2), default=4, show_default=True),
        click.option("--tau", type=click.Choice(TAU_SCENARIOS), default="x1",
                     show_default=True, help="Effect heterogeneity scenario."),
        click.option("--assignment", type=click.Choice(ASSIGNMENTS),
                     default="random", show_default=True),
        click.option("--confounding", type=click.Choice(CONFOUNDINGS),
                     default="none", show_default=True),
        click.option("--chi", type=click.Choice(CHI_CHOICES), default="x1",
                     show_default=True, help="Covariate mix in the trend term."),
    ]
    for opt in reversed(opts):
        f = opt(f)
    return f


def _check_bootstrap(ctx, param, value):
    """Reject draw counts the bootstrap would refuse after estimation."""
    if value != 0 and value < MIN_BOOTSTRAP_REPLICATES:
        raise click.BadParameter(
            f"must be 0 (off) or at least {MIN_BOOTSTRAP_REPLICATES}, got {value}")
    return value


def _check_delimiter(ctx, param, value):
    """Reject a delimiter the CSV reader cannot use."""
    if len(value) != 1:
        raise click.BadParameter(f"must be a single character, got {value!r}")
    return value


# Fewest bins CLAN can compare: the least and the most affected.
_K_BINS = click.IntRange(min=2)


def _check_fixed_l1(ctx, param, value):
    """Reject a penalty no lasso fit can use, as ``learners.check_fixed_l1`` does."""
    try:
        check_fixed_l1(value)
    except MldidError as err:
        raise click.BadParameter(str(err)) from err
    return value


def _estimator_options(f):
    opts = [
        click.option("--folds", type=click.IntRange(min=2), default=5, show_default=True),
        click.option("--bootstrap", type=int, default=0, show_default=True,
                     callback=_check_bootstrap,
                     help=f"Multiplier-bootstrap draws for standard errors (0 = off, "
                          f"else at least {MIN_BOOTSTRAP_REPLICATES})."),
        click.option("--placebo", type=click.BOOL, default=True,
                     show_default=True, help="Include pre-treatment cells."),
        click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True),
        click.option("--fixed-l1", type=float, default=None, callback=_check_fixed_l1,
                     help="Pin every lasso penalty instead of cross-validating."),
    ]
    for opt in reversed(opts):
        f = opt(f)
    return f


def _estimator_config(seed, folds, placebo, threads, fixed_l1):
    return EstimatorConfig(n_folds=folds, seed=seed, fixed_l1=fixed_l1,
                           include_placebo=placebo, threads=threads)


@cli.command("simulate")
@_dgp_options
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), required=True)
def cmd_simulate(n, periods, tau, assignment, confounding, chi, seed, out):
    """Draw a panel from the Monte Carlo design and export it with its truth."""
    t0 = time.time()
    config = DgpConfig(n_units=n, n_periods=periods, assignment=assignment,
                       tau=tau, confounding=confounding, chi=chi, seed=seed)
    oracle = simulate(config)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_panel_csv(oracle.panel, out_dir / "panel.csv")
    write_oracle_cells_csv(out_dir / "oracle_cells.csv", oracle.oracle_cells(True))
    write_oracle_catt_csv(out_dir / "oracle_catt.csv", oracle.oracle_catt(),
                          oracle.panel.unit_ids)
    write_manifest(out_dir / "manifest.json", {
        "command": "simulate",
        "config": dataclasses.asdict(config),
        "versions": environment_versions(),
        "wall_seconds": time.time() - t0,
        "outputs": ["panel.csv", "oracle_cells.csv", "oracle_catt.csv"],
    })
    click.echo(f"wrote panel of {n} units x {periods} periods to {out_dir}")


def _heterogeneity_results(catt_panel, k_bins, oracle_values=None,
                           most_affected="highest"):
    """BLP and CLAN tables for each emitted target, and what they leave out.

    One loop runs over the post event times and then the pooled design.
    Each event time gets one ``blp`` call on its rows (the design [1, x])
    and one ``clan`` call per target; the pooled design is one ``blp`` call
    on every row with their event times. Whatever ``blp`` or ``clan``
    raises (too few rows for the design's columns or for CLAN's bins, a
    rank-deficient design) leaves out that table and is returned as a
    ``{"table", "e", "reason"}`` record, with e "pooled" for the pooled
    design. The tables come per target: its per-event BLPs, its pooled
    BLP, then its CLANs.
    """
    targets = [("catt", catt_panel.tau), ("score", catt_panel.score)]
    if oracle_values is not None:
        targets.append(("oracle", oracle_values))
    names = catt_panel.covariate_names
    blps, clans, skipped = [], [], []
    for e in [*sorted({int(v) for v in np.unique(catt_panel.e) if v >= 0}), "pooled"]:
        rows = slice(None) if e == "pooled" else catt_panel.e == e
        X = catt_panel.X[rows]
        design = {"event_times": catt_panel.e} if e == "pooled" else {"e": e}
        try:
            blps += blp([(label, values[rows]) for label, values in targets], X, names,
                        **design)
        except MldidError as err:
            skipped.append({"table": "blp", "e": e, "reason": str(err)})
        if e != "pooled":
            try:
                clans += [clan(values[rows], X, catt_panel.unit_ids[rows], names, n_bins=k_bins,
                               e=e, target=label, most_affected=most_affected)
                          for label, values in targets]
            except MldidError as err:
                skipped.append({"table": "clan", "e": e, "reason": str(err)})
    rank = {label: j for j, (label, _) in enumerate(targets)}
    # Stable sorts: each target's tables stay in design order.
    return (sorted(blps, key=lambda res: rank[res.target]),
            sorted(clans, key=lambda res: rank[res.target]), skipped)


@cli.command("estimate")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Long-format panel CSV.")
@click.option("--out", type=click.Path(file_okay=False), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--delimiter", type=str, default=",", show_default=True,
              callback=_check_delimiter)
@click.option("--k-bins", type=_K_BINS, default=4, show_default=True,
              help="Affectedness bins for the classification analysis.")
@_estimator_options
def cmd_estimate(input_path, out, seed, delimiter, k_bins,
                 folds, bootstrap, placebo, threads, fixed_l1):
    """Estimate group-time and event-study effects from a panel CSV."""
    t0 = time.time()
    try:
        panel = load_panel(input_path, ColumnSchema(delimiter=delimiter))
    except PanelValidationError as err:
        click.echo(f"input validation failed: {err}", err=True)
        sys.exit(EXIT_VALIDATION)

    config = _estimator_config(seed, folds, placebo, threads, fixed_l1)
    run = run_mldid(panel, config)
    if not any(not c.is_reference for c in run.cells):
        click.echo("estimation failed for every cell", err=True)
        for g, t, reason in run.skipped:
            click.echo(f"  (g={g}, t={t}): {reason}", err=True)
        sys.exit(EXIT_ESTIMATION)
    boot = None
    if bootstrap > 0:
        boot = multiplier_se(panel, run, bootstrap, config.seed)
        run = attach_bootstrap_se(run, boot)

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_cells_csv(out_dir / "cells.csv", run.cells)
    write_dynamics_csv(out_dir / "dynamics.csv", run.dynamics)
    event_study_svg(out_dir / "event_study.svg", run.dynamics)
    write_dr_cells_csv(out_dir / "dr_cells.csv", run.dr_cells)
    outputs = ["cells.csv", "dynamics.csv", "dr_cells.csv", "event_study.svg"]
    heterogeneity_skipped = []
    if run.catt_panel is not None:
        write_catt_panel_csv(out_dir / "catt_panel.csv", run.catt_panel)
        blps, clans, heterogeneity_skipped = _heterogeneity_results(
            run.catt_panel, k_bins)
        write_blp_csv(out_dir / "blp.csv", blps)
        write_clan_csv(out_dir / "clan.csv", clans)
        outputs += ["catt_panel.csv", "blp.csv", "clan.csv"]

    write_manifest(out_dir / "manifest.json", {
        "command": "estimate",
        "input": str(input_path),
        "config": dataclasses.asdict(config),
        "skipped_cells": [
            {"g": g, "t": t, "reason": r} for g, t, r in run.skipped
        ],
        "skipped_dr_cells": [
            {"g": g, "t": t, "reason": r} for g, t, r in run.dr_skipped
        ],
        "skipped_heterogeneity": heterogeneity_skipped,
        "bootstrap": None if boot is None else {"method": "multiplier",
                                                "draws": boot.n_replicates},
        "versions": environment_versions(),
        "wall_seconds": time.time() - t0,
        "outputs": outputs,
    })
    click.echo(
        f"estimated {sum(not c.is_reference for c in run.cells)} cells "
        f"({len(run.skipped)} skipped) -> {out_dir}"
    )


def _benchmark_rep(args):
    """One Monte Carlo repetition: draw a panel, estimate it, score it against its truth.

    ``args`` is (seeded DgpConfig, EstimatorConfig, k_bins, draws). The run
    takes the draw's seed and one thread. The record holds, per estimated
    cell (g, t), the tuple (att, att_dr, oracle_att, se): att_dr is None
    where the DR baseline failed, oracle_att is the drawn panel's ATT(g, t)
    (``OraclePanel.oracle_att``) and se the multiplier-bootstrap SE of
    ``draws`` draws (None without draws). It also holds the rows of
    :func:`_heterogeneity_results` with the true conditional effects as the
    "oracle" target: the per-event BLP rows (target, e, covariate, coef,
    se, p) and the CLAN rows (target, e, covariate, delta_low, delta_high,
    diff, ci_low, ci_high). A repetition that raises MldidError returns
    ``{"error": message}``.
    """
    dgp, config, k_bins, draws = args
    try:
        oracle = simulate(dgp)
        run_config = dataclasses.replace(config, seed=dgp.seed, threads=1)
        run = run_mldid(oracle.panel, run_config)
        cell_se = (multiplier_se(oracle.panel, run, draws, run_config.seed).cell_se
                   if draws > 0 else {})
        cells = {(c.g, c.t): (c.att, dr.att_dr, oracle.oracle_att(c.g, c.t),
                              cell_se.get((c.g, c.t)))
                 for c, dr in zip(run.cells, run.dr_cells) if not c.is_reference}
        record = {"cells": cells, "blp": [], "clan": []}
        cp = run.catt_panel
        if cp is not None:
            row_of = {uid: i for i, uid in enumerate(oracle.panel.unit_ids)}
            tau = oracle.tau_unit[[row_of[u] for u in cp.unit_ids]]
            blps, clans, _ = _heterogeneity_results(cp, k_bins, effect_path(cp.e, tau))
            record["blp"] = [(r.target, c.e, c.covariate, c.coef, c.se, c.p)
                             for r in blps if r.mode == "per-event" for c in r.coefficients]
            record["clan"] = [(r.target, r.e, row.covariate, row.delta_low, row.delta_high,
                               row.diff, row.ci_low, row.ci_high)
                              for r in clans for row in r.rows]
        return record
    except MldidError as err:
        return {"error": str(err)}


def _rmse_rows(records) -> list:
    """``compare_rmse`` of the records' cells, each over the records with its DR att."""
    ml, dr, truth = {}, {}, {}
    for record in records:
        for key, (att, att_dr, oracle_att, _) in record["cells"].items():
            if att_dr is not None:
                ml.setdefault(key, []).append(att)
                dr.setdefault(key, []).append(att_dr)
                truth.setdefault(key, []).append(oracle_att)
    return compare_rmse(ml, dr, truth)


def _table_rows(records, table: str) -> list:
    """Sorted (target, e, covariate) keys of a record table, each with its rows' values."""
    acc: dict = {}
    for record in records:
        for target, e, covariate, *values in record[table]:
            acc.setdefault((target, e, covariate), []).append(values)
    return [(key, np.array(values)) for key, values in sorted(acc.items())]


def _sig_frac(p: np.ndarray) -> float | None:
    """Share of the finite p-values below 0.05; None without one (every fit exact)."""
    p = p[np.isfinite(p)]
    return float(np.mean(p < 0.05)) if p.size else None


def _coverage_rows(records, keys) -> list:
    """Per cell, the share of records with an SE whose 95% interval covers oracle_att."""
    rows = []
    for key in keys:
        cells = [record["cells"][key] for record in records if key in record["cells"]]
        covered = [abs(att - oracle_att) <= 1.96 * se
                   for att, _, oracle_att, se in cells if se is not None]
        if covered:
            rows.append((key[0], key[1], float(sum(covered) / len(covered)), len(covered)))
    return rows


@cli.command("benchmark")
@_dgp_options
@click.option("--reps", type=click.IntRange(min=1), default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), required=True)
@click.option("--k-bins", type=_K_BINS, default=4, show_default=True)
@_estimator_options
def cmd_benchmark(n, periods, tau, assignment, confounding, chi, reps, seed,
                  out, k_bins, folds, bootstrap, placebo, threads, fixed_l1):
    """Repeat simulate -> estimate and score each repetition against its truth.

    rmse.csv and coverage.csv measure each cell against the sample ATT(g,t)
    of the panel drawn in that repetition (the mean of Y(g) - Y(0) over the
    cohort's drawn units), not against a population effect. With the
    defaults, --seed 20260810 and either --n 5000 --reps 20 or --n 2500
    --reps 50 give the cells of acceptance criteria 1 and 2.
    """
    t0 = time.time()
    dgp_kwargs = dict(n_units=n, n_periods=periods, assignment=assignment,
                      tau=tau, confounding=confounding, chi=chi)
    config = _estimator_config(seed, folds, placebo, threads, fixed_l1)
    tasks = [(DgpConfig(seed=derive_seed(seed, _SEED_REP, rep), **dgp_kwargs),
              config, k_bins, bootstrap) for rep in range(reps)]
    records = []
    for rep, (record, caught) in enumerate(_map_tasks(_benchmark_rep, tasks, threads)):
        # Name this line: the caller of this command is click's dispatcher.
        _reemit(f"benchmark repetition {rep}", caught, stacklevel=2)
        records.append(record)

    failures = [r for r in records if "error" in r]
    good = [r for r in records if "error" not in r]
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    rmse = _rmse_rows(good)
    if rmse:
        write_rmse_csv(out_dir / "rmse.csv", rmse)
        outputs.append("rmse.csv")
    blp_rows = [(*key, float(v[:, 0].mean()), float(v[:, 1].mean()), _sig_frac(v[:, 2]))
                for key, v in _table_rows(good, "blp")]
    if blp_rows:
        write_blp_avg_csv(out_dir / "blp_avg.csv", blp_rows)
        outputs.append("blp_avg.csv")
    clan_rows = [(*key, *(float(m) for m in v.mean(axis=0)))
                 for key, v in _table_rows(good, "clan")]
    if clan_rows:
        write_benchmark_clan_csv(out_dir / "clan.csv", clan_rows)
        outputs.append("clan.csv")
    if bootstrap > 0 and good:
        write_coverage_csv(out_dir / "coverage.csv",
                           _coverage_rows(good, [(r.g, r.t) for r in rmse]))
        outputs.append("coverage.csv")

    write_manifest(out_dir / "manifest.json", {
        "command": "benchmark",
        "dgp": dgp_kwargs | {"seed": seed},
        "config": dataclasses.asdict(config),
        "reps": reps,
        "bootstrap": bootstrap,
        "failed_reps": len(failures),
        "failure_reasons": [r["error"] for r in failures][:10],
        "versions": environment_versions(),
        "wall_seconds": time.time() - t0,
        "outputs": outputs,
    })
    click.echo(
        f"benchmark: {len(good)}/{reps} repetitions succeeded -> {out_dir}"
    )
    if len(failures) > 0.1 * reps:
        sys.exit(EXIT_ESTIMATION)


@cli.command("heterogeneity")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Long-format panel CSV.")
@click.option("--catt", "catt_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="catt_panel.csv from a previous run.")
@click.option("--out", type=click.Path(file_okay=False), required=True)
@click.option("--k-bins", type=_K_BINS, default=4, show_default=True)
@click.option("--delimiter", type=str, default=",", show_default=True,
              callback=_check_delimiter)
@click.option("--most-affected", type=click.Choice(["highest", "lowest"]),
              default="highest", show_default=True,
              help="Which tail counts as most affected.")
def cmd_heterogeneity(input_path, catt_path, out, k_bins, delimiter,
                      most_affected):
    """Re-run BLP and CLAN analysis from exported estimation tables."""
    from .estimator import CattPanel

    t0 = time.time()
    try:
        panel = load_panel(input_path, ColumnSchema(delimiter=delimiter))
    except PanelValidationError as err:
        click.echo(f"input validation failed: {err}", err=True)
        sys.exit(EXIT_VALIDATION)

    try:
        units, es, taus, scores = read_catt_panel_csv(catt_path)
    except PanelValidationError as err:
        click.echo(f"input validation failed: {err}", err=True)
        sys.exit(EXIT_VALIDATION)
    if not units:
        click.echo("catt panel is empty", err=True)
        sys.exit(EXIT_VALIDATION)

    row_of = {str(uid): i for i, uid in enumerate(panel.unit_ids)}
    try:
        rows = np.array([row_of[u] for u in units])
    except KeyError as err:
        click.echo(f"unit {err} from catt panel not in the input panel",
                   err=True)
        sys.exit(EXIT_VALIDATION)
    groups = panel.groups[rows]
    periods = groups + es
    bad = (groups == NEVER_TREATED) | (periods < 1) | (periods > panel.n_periods)
    if bad.any():
        k = int(np.argmax(bad))
        reason = (f"unit {units[k]!r} is never treated in the input panel"
                  if groups[k] == NEVER_TREATED else
                  f"unit {units[k]!r} of cohort {groups[k]} has e {es[k]}, outside "
                  f"{1 - groups[k]}..{panel.n_periods - groups[k]}")
        click.echo(f"input validation failed: catt panel: {reason}", err=True)
        sys.exit(EXIT_VALIDATION)
    # Covariates at the cohort's baseline period g - 1 (1-based).
    X = panel.covariates[rows, groups - 2, :]

    catt_panel = CattPanel(
        unit_ids=np.array(units, dtype=object),
        e=es,
        tau=taus,
        score=scores,
        X=X,
        covariate_names=panel.covariate_names,
    )
    blps, clans, skipped = _heterogeneity_results(
        catt_panel, k_bins, most_affected=most_affected)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_blp_csv(out_dir / "blp.csv", blps)
    write_clan_csv(out_dir / "clan.csv", clans)
    write_manifest(out_dir / "manifest.json", {
        "command": "heterogeneity",
        "input": str(input_path),
        "catt": str(catt_path),
        "k_bins": k_bins,
        "most_affected": most_affected,
        "skipped_heterogeneity": skipped,
        "versions": environment_versions(),
        "wall_seconds": time.time() - t0,
        "outputs": ["blp.csv", "clan.csv"],
    })
    click.echo(f"heterogeneity tables -> {out_dir}")


def main():
    cli(auto_envvar_prefix="MLDID")


if __name__ == "__main__":
    main()
