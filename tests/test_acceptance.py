"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Every criterion runs at the scale stated here (these are the declared
scaled-down substitutes for full 500-repetition grids; see the final
test). Monte Carlo designs, seeds and tolerances are pinned in this
module, and oracles always come from the simulator's stored
potential-outcome series, never from closed forms.

Criteria 1, 2, 5 and 6 read the records of ``mldid benchmark``'s own
repetition (``cli._benchmark_rep``), and 1 and 2 its RMSE fold
(``cli._rmse_rows``), so ``mldid benchmark --seed 20260810`` with
``--n 5000 --reps 20`` or ``--n 2500 --reps 50`` writes their cells to
rmse.csv. Criteria 3 and 4 also run the replicate bootstrap.

Run with ``pytest -m acceptance`` (or plain ``pytest`` for everything).
``MLDID_TEST_THREADS`` maps the repetitions over that many processes, as
``--threads`` does, and their warnings reach pytest.
"""

import os

import numpy as np
import pytest

from mldid import (
    DgpConfig,
    EstimatorConfig,
    amle_objective,
    attach_bootstrap_se,
    blp,
    bootstrap_se,
    cross_fit,
    fit_penalized_ls,
    make_fold_plan,
    multiplier_se,
    run_mldid,
    simulate,
    solve_amle,
)
from mldid.amle import AmleProblem
from mldid.cli import _benchmark_rep, _rmse_rows
from mldid.estimator import _map_tasks, _reemit, derive_seed
from mldid.nuisance import NuisanceBundle, compute_abch
from mldid.report import write_cells_csv

from _stacked_rows import stacked_decomposition

pytestmark = pytest.mark.acceptance

MASTER_SEED = 20260810
THREADS = int(os.environ.get("MLDID_TEST_THREADS", "1"))

# Declared scales (criterion 8 documents these as the scaled-down
# substitutes for the full grids).
SCALE = {
    "oracle_recovery": dict(reps=20, n=5000),
    "rmse": dict(reps=50, n=2500),
    "placebo": dict(reps=10, n=1000, bootstrap=60),
    "dynamic": dict(n=5000, bootstrap=60),
    "blp": dict(reps=20, n=2500),
    "clan": dict(n=10000),
}


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())


def _map(fn, tasks):
    """``fn`` over ``tasks`` as the engine maps them, re-raising each task's warnings."""
    results = []
    for i, (result, caught) in enumerate(_map_tasks(fn, tasks, THREADS)):
        _reemit(f"repetition {i}", caught)
        results.append(result)
    return results


def _records(stream, reps, n, include_placebo=True):
    """Benchmark records of ``reps`` draws of the default design, seeded from ``stream``."""
    config = EstimatorConfig(include_placebo=include_placebo)
    records = _map(_benchmark_rep, [
        (DgpConfig(n_units=n, seed=derive_seed(MASTER_SEED, stream, rep)), config, 4, 0)
        for rep in range(reps)])
    for record in records:
        assert "error" not in record, record["error"]
        assert all(att_dr is not None for _, att_dr, _, _ in record["cells"].values())
    return records


@pytest.fixture(scope="module")
def mc_5000():
    cfg = SCALE["oracle_recovery"]
    return _records(303, cfg["reps"], cfg["n"])


@pytest.fixture(scope="module")
def mc_2500():
    cfg = SCALE["rmse"]
    return _records(303, cfg["reps"], cfg["n"])


def test_criterion_1_oracle_recovery(mc_5000):
    """Cell means track the stored-potential-outcome oracle means."""
    ok = True
    details = []
    for row in _rmse_rows(mc_5000):
        gap_ml, gap_dr = abs(row.bias_ml), abs(row.bias_dr)
        details.append(f"{(row.g, row.t)}: ml {gap_ml:.3f} dr {gap_dr:.3f}")
        if gap_ml > 0.15 or gap_dr > 0.10:
            ok = False
    report("1 oracle-recovery", ok, "; ".join(details))
    assert ok, details


def test_criterion_2_rmse_ordering(mc_2500):
    """Per-cell RMSE magnitudes and the DR-vs-ML ordering."""
    rows = _rmse_rows(mc_2500)
    ok = True
    dr_not_worse = 0
    details = []
    for row in rows:
        details.append(f"{(row.g, row.t)}: ml {row.rmse_ml:.3f} dr {row.rmse_dr:.3f}")
        if row.rmse_dr <= row.rmse_ml:
            dr_not_worse += 1
        if row.rmse_dr > 0.25:
            ok = False
        if row.rmse_ml > 0.5:
            ok = False
    frac = dr_not_worse / len(rows)
    if frac < 0.75:
        ok = False
    report("2 rmse-ordering", ok,
           f"dr<=ml in {frac:.0%}; " + "; ".join(details))
    assert ok, details


def _both_engines(panel, config, run, n_boot):
    """The run with the SEs of each bootstrap engine: replicate refits and multiplier draws."""
    return {
        "replicate": attach_bootstrap_se(run, bootstrap_se(panel, config, n_boot)),
        "multiplier": attach_bootstrap_se(run, multiplier_se(panel, run, n_boot, config.seed)),
    }


def _placebo_rep(args):
    rep, n, n_boot = args
    seed = derive_seed(MASTER_SEED, 404, rep)
    oracle = simulate(DgpConfig(n_units=n, seed=seed))
    config = EstimatorConfig(seed=seed, fixed_l1=0.02)
    out = []
    for engine, run in _both_engines(oracle.panel, config,
                                     run_mldid(oracle.panel, config), n_boot).items():
        for c in run.cells:
            if not c.is_reference and c.e < 0:
                out.append(((engine, "cell", (c.g, c.t)), c.att, c.se))
        for d in run.dynamics:
            if not d.is_reference and d.e < 0:
                out.append(((engine, "dyn", d.e), d.theta, d.se))
    return out


def test_criterion_3_placebo_zeros():
    """Pre-treatment estimates stay within 3 bootstrap SEs of zero, under either engine."""
    cfg = SCALE["placebo"]
    reps = _map(_placebo_rep,
                [(r, cfg["n"], cfg["bootstrap"]) for r in range(cfg["reps"])])
    counts = {}
    for rows in reps:
        for key, est, se in rows:
            counts.setdefault(key, []).append(abs(est) <= 3 * se)
    ok = True
    details = []
    for key, flags in sorted(counts.items(), key=str):
        frac = float(np.mean(flags))
        details.append(f"{key}: {frac:.0%}")
        if frac < 0.9:
            ok = False
    report("3 placebo-zeros", ok, "; ".join(details))
    assert ok, details


def test_criterion_4_dynamic_aggregation():
    """Event-study point at e=2 within 3 SE of its oracle under either engine; exact weights."""
    cfg = SCALE["dynamic"]
    seed = derive_seed(MASTER_SEED, 505, 0)
    oracle = simulate(DgpConfig(n_units=cfg["n"], seed=seed))
    config = EstimatorConfig(seed=seed)
    runs = _both_engines(oracle.panel, config, run_mldid(oracle.panel, config),
                         cfg["bootstrap"])
    from mldid import oracle_dynamic

    run = runs["replicate"]
    weights_ok = all(
        abs(sum(d.weights.values()) - 1.0) <= 1e-12
        for d in run.dynamics if not d.is_reference
    )
    truth = oracle_dynamic(oracle)
    d2 = run.dynamic(2)
    gap = abs(d2.theta - truth[2])
    ses = {engine: r.dynamic(2).se for engine, r in runs.items()}
    ok = weights_ok and all(gap <= 3 * se for se in ses.values())
    report("4 dynamic-aggregation", ok,
           f"theta(2) {d2.theta:+.3f} oracle {truth[2]:+.3f} se "
           + ", ".join(f"{se:.3f} ({engine})" for engine, se in ses.items())
           + f" weights_ok={weights_ok}")
    assert ok


def test_criterion_5_blp_detection():
    """Score regressions find the true heterogeneity driver, and only it."""
    cfg = SCALE["blp"]
    records = _records(606, cfg["reps"], cfg["n"], include_placebo=False)
    n_reps = len(records)
    sig_increasing = 0
    insig = {name: 0 for name in ("x_2", "x_3", "x_4", "x_5")}
    for record in records:
        score = {(e, covariate): (coef, p)
                 for target, e, covariate, coef, _, p in record["blp"] if target == "score"}
        coefs = [score[(e, "x_1")][0] for e in (0, 1, 2)]
        pvals = [score[(e, "x_1")][1] for e in (0, 1, 2)]
        if all(p < 0.01 for p in pvals) and all(c > 0 for c in coefs) \
                and coefs[0] < coefs[1] < coefs[2]:
            sig_increasing += 1
        for name in insig:
            if score[(2, name)][1] >= 0.05:
                insig[name] += 1
    ok = sig_increasing >= 0.8 * n_reps
    details = [f"x_1 sig+increasing {sig_increasing}/{n_reps}"]
    for name, count in insig.items():
        details.append(f"{name} insig {count}/{n_reps}")
        if count < 0.8 * n_reps:
            ok = False
    report("5 blp-detection", ok, "; ".join(details))
    assert ok, details


def test_criterion_6_clan_detection():
    """Most/least affected groups differ in the true driver only."""
    (record,) = _records(707, 1, SCALE["clan"]["n"], include_placebo=False)
    rows = {covariate: (diff, lo, hi)
            for target, e, covariate, _, _, diff, lo, hi in record["clan"]
            if target == "catt" and e == 0}
    (diff1, lo1, hi1), (_, lo4, hi4) = rows["x_1"], rows["x_4"]
    ok = (diff1 > 0 and lo1 > 0) and (lo4 <= 0 <= hi4)
    report("6 clan-detection", ok,
           f"x_1 diff {diff1:+.3f} CI [{lo1:+.3f},{hi1:+.3f}]; "
           f"x_4 CI [{lo4:+.3f},{hi4:+.3f}]")
    assert ok


def test_criterion_7_algebraic_suite(tmp_path):
    """Noise-free algebra, closed forms, leakage and determinism checks."""
    ok = True

    # The unit decomposition, to 1e-12: B = G - g_hat and dH = dY - nu_hat,
    # and on a unit's stacked rows (t = 1/2, zero conditional covariance)
    # C_post - C_pre = B and H_post - H_pre = dH whatever the level
    # nuisances m and zeta.
    rng = np.random.default_rng(0)
    n = 300
    g_flag = rng.integers(0, 2, n)
    g = rng.uniform(0.05, 0.95, n)
    y_pre, y_post, m_hat, nu, zeta = rng.standard_normal((5, n))
    bundle = compute_abch(NuisanceBundle(
        y_pre=y_pre, y_post=y_post, g=g_flag.astype(np.int8), X=np.zeros((n, 1)),
        unit_ids=np.arange(n, dtype=object), covariate_names=("x_1",),
        g_hat=g, nu_hat=nu,
    ))
    ok &= np.allclose(bundle.B, g_flag - g, atol=1e-12)
    ok &= np.allclose(bundle.dH, (y_post - y_pre) - nu, atol=1e-12)
    rows = {t: stacked_decomposition(y, g_flag, t, g, m_hat, nu, zeta)
            for t, y in ((0.0, y_pre), (1.0, y_post))}
    ok &= np.allclose(rows[1.0][2] - rows[0.0][2], bundle.B, atol=1e-12)
    ok &= np.allclose(rows[1.0][3] - rows[0.0][3], bundle.dH, atol=1e-12)

    # Lasso against the soft-threshold closed form, to 1e-8.
    Q, _ = np.linalg.qr(rng.standard_normal((64, 4)))
    X = Q * 8.0
    y = X @ np.array([1.2, -0.4, 0.05, 0.0]) + 0.0
    lam = 0.2
    ols = X.T @ y / 64
    expected = np.sign(ols) * np.maximum(np.abs(ols) - lam, 0.0)
    model = fit_penalized_ls(X, y, l1=lam, fit_intercept=False)
    ok &= np.allclose(model.coef, expected, atol=1e-8)

    # Balancing weights scalar closed form, to 1e-10.
    psi = np.array([[1.0], [2.0], [-1.0]])
    problem = AmleProblem(basis=psi, target=np.array([0.5]), sigma2=2.0)
    gamma = solve_amle(problem)
    ok &= np.allclose(gamma, psi[:, 0] * 0.5 * 3 / 8.0, atol=1e-10)
    ok &= amle_objective(problem, gamma) <= amle_objective(
        problem, np.zeros(3)) + 1e-15

    # OLS recovery of an exactly linear oracle effect, to 1e-8.
    Xb = rng.standard_normal((500, 5))
    target = 3.0 * Xb[:, 0]
    res, = blp([("oracle", target)], Xb, tuple(f"x_{j+1}" for j in range(5)), e=0)
    ok &= abs(res.coef("x_1", 0).coef - 3.0) < 1e-8
    ok &= all(abs(res.coef(f"x_{j}", 0).coef) < 1e-8 for j in (2, 3, 4, 5))

    # Cross-fit leakage: poisoning one unit leaves its prediction alone.
    Xc = rng.standard_normal((60, 2))
    yc = Xc[:, 0] + 0.1 * rng.standard_normal(60)
    plan = make_fold_plan(60, 5, seed=1)
    fit = lambda a, b: fit_penalized_ls(a, b)
    base = cross_fit(Xc, yc, np.arange(60), plan, fit)
    yp = yc.copy()
    yp[13] += 1e5
    ok &= cross_fit(Xc, yp, np.arange(60), plan, fit)[13] == base[13]

    # Determinism: identical seeded runs produce byte-identical tables.
    oracle = simulate(DgpConfig(n_units=250, seed=1234))
    config = EstimatorConfig(seed=99, fixed_l1=0.02)
    paths = []
    for name in ("a.csv", "b.csv"):
        run = run_mldid(oracle.panel, config)
        path = tmp_path / name
        write_cells_csv(path, run.cells)
        paths.append(path)
    ok &= paths[0].read_bytes() == paths[1].read_bytes()

    report("7 algebraic-suite", bool(ok))
    assert ok


def test_criterion_8_declared_scales():
    """Full 500-rep grids are not claimed; these scales substitute."""
    assert SCALE["oracle_recovery"] == {"reps": 20, "n": 5000}
    assert SCALE["rmse"] == {"reps": 50, "n": 2500}
    assert SCALE["blp"] == {"reps": 20, "n": 2500}
    assert SCALE["clan"] == {"n": 10000}
    report("8 declared-scales", True,
           "criteria 1-6 run at the reduced scales above by design")
