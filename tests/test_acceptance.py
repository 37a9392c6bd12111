"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Every criterion runs at the scale stated here (these are the declared
scaled-down substitutes for full 500-repetition grids; see the final
test). Monte Carlo designs, seeds and tolerances are pinned in this
module, and oracles always come from the simulator's stored
potential-outcome series, never from closed forms.

Run with ``pytest -m acceptance`` (or plain ``pytest`` for everything).
``MLDID_TEST_THREADS`` parallelizes the repetition loops.
"""

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mldid import (
    DgpConfig,
    EstimatorConfig,
    LearnerConfig,
    amle_objective,
    attach_bootstrap_se,
    blp,
    bootstrap_se,
    clan,
    cross_fit,
    estimate_cell_dr,
    fit_penalized_ls,
    make_fold_plan,
    run_mldid,
    simulate,
    slice_two_period,
    solve_amle,
)
from mldid.amle import AmleProblem
from mldid.estimator import derive_seed
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

FLAGGED_UNSTABLE = {(3, 3), (4, 2)}


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())


def _map(fn, tasks):
    if THREADS > 1:
        with ProcessPoolExecutor(max_workers=THREADS) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _mc_rep(args):
    """One repetition: estimate every cell plus the DR baseline."""
    rep, n, include_placebo = args
    seed = derive_seed(MASTER_SEED, 303, rep)
    oracle = simulate(DgpConfig(n_units=n, seed=seed))
    run = run_mldid(oracle.panel,
                    EstimatorConfig(seed=seed, include_placebo=include_placebo))
    out = {}
    for c in run.cells:
        if c.is_reference:
            continue
        dr = estimate_cell_dr(slice_two_period(oracle.panel, c.g, c.t))
        out[(c.g, c.t)] = (c.att, dr.att_dr, oracle.oracle_att(c.g, c.t))
    return out


@pytest.fixture(scope="module")
def mc_5000():
    cfg = SCALE["oracle_recovery"]
    return _map(_mc_rep, [(r, cfg["n"], True) for r in range(cfg["reps"])])


@pytest.fixture(scope="module")
def mc_2500():
    cfg = SCALE["rmse"]
    return _map(_mc_rep, [(r, cfg["n"], True) for r in range(cfg["reps"])])


def _collect(reps):
    ml, dr, orc = {}, {}, {}
    for rep in reps:
        for key, (a, d, o) in rep.items():
            ml.setdefault(key, []).append(a)
            dr.setdefault(key, []).append(d)
            orc.setdefault(key, []).append(o)
    return ml, dr, orc


def test_criterion_1_oracle_recovery(mc_5000):
    """Cell means track the stored-potential-outcome oracle means."""
    ml, dr, orc = _collect(mc_5000)
    ok = True
    details = []
    for key in sorted(orc):
        gap_ml = abs(np.mean(ml[key]) - np.mean(orc[key]))
        gap_dr = abs(np.mean(dr[key]) - np.mean(orc[key]))
        details.append(f"{key}: ml {gap_ml:.3f} dr {gap_dr:.3f}")
        if gap_ml > 0.15 or gap_dr > 0.10:
            ok = False
    report("1 oracle-recovery", ok, "; ".join(details))
    assert ok, details


def test_criterion_2_rmse_ordering(mc_2500):
    """Per-cell RMSE magnitudes and the DR-vs-ML ordering."""
    ml, dr, orc = _collect(mc_2500)
    ok = True
    dr_not_worse = 0
    details = []
    for key in sorted(orc):
        e_ml = np.array(ml[key]) - np.array(orc[key])
        e_dr = np.array(dr[key]) - np.array(orc[key])
        rmse_ml = float(np.sqrt(np.mean(e_ml**2)))
        rmse_dr = float(np.sqrt(np.mean(e_dr**2)))
        details.append(f"{key}: ml {rmse_ml:.3f} dr {rmse_dr:.3f}")
        if rmse_dr <= rmse_ml:
            dr_not_worse += 1
        if rmse_dr > 0.25:
            ok = False
        if rmse_ml > 0.5 and key not in FLAGGED_UNSTABLE:
            ok = False
    frac = dr_not_worse / len(orc)
    if frac < 0.75:
        ok = False
    report("2 rmse-ordering", ok,
           f"dr<=ml in {frac:.0%}; " + "; ".join(details))
    assert ok, details


def _placebo_rep(args):
    rep, n, n_boot = args
    seed = derive_seed(MASTER_SEED, 404, rep)
    oracle = simulate(DgpConfig(n_units=n, seed=seed))
    config = EstimatorConfig(seed=seed, learners=LearnerConfig(fixed_l1=0.02))
    run = attach_bootstrap_se(
        run_mldid(oracle.panel, config),
        bootstrap_se(oracle.panel, config, n_boot),
    )
    cells = {
        (c.g, c.t): (c.att, c.se)
        for c in run.cells if not c.is_reference and c.e < 0
    }
    dyns = {
        d.e: (d.theta, d.se)
        for d in run.dynamics if not d.is_reference and d.e < 0
    }
    return cells, dyns


def test_criterion_3_placebo_zeros():
    """Pre-treatment estimates stay within 3 bootstrap SEs of zero."""
    cfg = SCALE["placebo"]
    reps = _map(_placebo_rep,
                [(r, cfg["n"], cfg["bootstrap"]) for r in range(cfg["reps"])])
    counts = {}
    for cells, dyns in reps:
        for key, (att, se) in cells.items():
            counts.setdefault(("cell", key), []).append(abs(att) <= 3 * se)
        for e, (theta, se) in dyns.items():
            counts.setdefault(("dyn", e), []).append(abs(theta) <= 3 * se)
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
    """Event-study point at e=2 within 3 SE of its oracle; exact weights."""
    cfg = SCALE["dynamic"]
    seed = derive_seed(MASTER_SEED, 505, 0)
    oracle = simulate(DgpConfig(n_units=cfg["n"], seed=seed))
    config = EstimatorConfig(seed=seed)
    run = attach_bootstrap_se(
        run_mldid(oracle.panel, config),
        bootstrap_se(oracle.panel, config, cfg["bootstrap"]),
    )
    from mldid import oracle_dynamic

    weights_ok = all(
        abs(sum(d.weights.values()) - 1.0) <= 1e-12
        for d in run.dynamics if not d.is_reference
    )
    truth = oracle_dynamic(oracle)
    d2 = run.dynamic(2)
    gap = abs(d2.theta - truth[2])
    ok = weights_ok and gap <= 3 * d2.se
    report("4 dynamic-aggregation", ok,
           f"theta(2) {d2.theta:+.3f} oracle {truth[2]:+.3f} se {d2.se:.3f} "
           f"weights_ok={weights_ok}")
    assert ok


def _blp_rep(args):
    (rep, n) = args
    seed = derive_seed(MASTER_SEED, 606, rep)
    oracle = simulate(DgpConfig(n_units=n, seed=seed))
    run = run_mldid(oracle.panel,
                    EstimatorConfig(seed=seed, include_placebo=False))
    cp = run.catt_panel
    res = blp(cp.score, cp.e, cp.X, cp.covariate_names, mode="per-event",
              target="score")
    x1 = [(res.coef("x_1", e).coef, res.coef("x_1", e).p) for e in (0, 1, 2)]
    others = {name: res.coef(name, 2).p
              for name in ("x_2", "x_3", "x_4", "x_5")}
    return x1, others


def test_criterion_5_blp_detection():
    """Score regressions find the true heterogeneity driver, and only it."""
    cfg = SCALE["blp"]
    reps = _map(_blp_rep, [(r, cfg["n"]) for r in range(cfg["reps"])])
    n_reps = len(reps)
    sig_increasing = 0
    insig = {name: 0 for name in ("x_2", "x_3", "x_4", "x_5")}
    for x1, others in reps:
        coefs = [c for c, _ in x1]
        pvals = [p for _, p in x1]
        if all(p < 0.01 for p in pvals) and all(c > 0 for c in coefs) \
                and coefs[0] < coefs[1] < coefs[2]:
            sig_increasing += 1
        for name, p in others.items():
            if p >= 0.05:
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
    cfg = SCALE["clan"]
    seed = derive_seed(MASTER_SEED, 707, 0)
    oracle = simulate(DgpConfig(n_units=cfg["n"], seed=seed))
    run = run_mldid(oracle.panel,
                    EstimatorConfig(seed=seed, include_placebo=False))
    cp = run.catt_panel
    rows = cp.e == 0
    res = clan(cp.tau[rows], cp.X[rows], cp.unit_ids[rows],
               cp.covariate_names, n_bins=4, e=0)
    r1, r4 = res.row("x_1"), res.row("x_4")
    ok = (r1.diff > 0 and r1.ci_low > 0) and (r4.ci_low <= 0 <= r4.ci_high)
    report("6 clan-detection", ok,
           f"x_1 diff {r1.diff:+.3f} CI [{r1.ci_low:+.3f},{r1.ci_high:+.3f}]; "
           f"x_4 CI [{r4.ci_low:+.3f},{r4.ci_high:+.3f}]")
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
    res = blp(target, np.zeros(500, dtype=int), Xb,
              tuple(f"x_{j+1}" for j in range(5)))
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
    config = EstimatorConfig(seed=99, learners=LearnerConfig(fixed_l1=0.02))
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
