"""Acceptance gate: every headline behavior checked at its stated tolerance.

Each test computes its sub-checks as booleans and records exactly one
PASS/FAIL line through the ``acceptance`` fixture, so the summary block at the
end of a pytest run reads as a checklist.  Tolerances and problem sizes are
stated inline next to each check.
"""
import time

import numpy as np
import pytest
from scipy import stats

from sdsbm import (
    BlockTensor,
    DEFAULT_BETA_GRID,
    Dataset,
    FitConfig,
    GroundTruth,
    MembershipTensor,
    ModelArchive,
    PatternSpec,
    PriorConfig,
    SplitPlan,
    block_matrix,
    cross_validate,
    fit,
    generate_memberships,
    log_posterior,
    rmse_aligned,
    roc_auc,
    sample_dataset,
)
from sdsbm.em import _m_step
from sdsbm.evaluation import FAMILIES
from sdsbm.model import _Problem

from conftest import random_blocks, random_memberships, score_table
from model_reference import responsibilities
from prior_reference import concentration, dirichlet_mode


def planted(kind, n_epochs, n_items, noise, pattern_seed=0, cycles=1.0):
    spec = PatternSpec(kind=kind, n_epochs=n_epochs, n_items=n_items,
                       n_clusters=3, cycles=cycles, seed=pattern_seed)
    theta = generate_memberships(spec)
    return GroundTruth(theta, block_matrix(noise), spec)


def omega_sums(theta, p, data):
    """Responsibility sums accumulated one observation at a time (oracle path)."""
    th = theta.values if hasattr(theta, "values") else np.asarray(theta)
    pv = p.values if hasattr(p, "values") else np.asarray(p)
    T, I, K = th.shape
    s_theta = np.zeros((T, I, K))
    s_p = np.zeros((T, K, pv.shape[2]))
    epochs, nodes, labels, weights = data.compressed()
    for t, i, o, w in zip(epochs, nodes, labels, weights):
        om = responsibilities(th, pv, int(i), int(o), int(t))
        s_theta[t, i] += w * om
        s_p[t, :, o] += w * om
    return s_theta, s_p


def test_criterion_1_static_recovery(acceptance):
    """T=1, beta=0: the coordinate updates are the classic static ones.

    50 nodes, K=3, O=3, ~40 observations per node, all 200 sweeps executed:
    the trace may not decrease (slack 1e-8), and at the final parameters the
    membership update must equal the responsibility sums over N_i and the
    block update the per-row normalized sums — the fixed-point equations of
    the uncoupled model, checked against sums accumulated one observation at
    a time.  The whole fit must finish within 5 seconds.
    """
    truth = planted("sinusoidal", 1, 50, 0.05, pattern_seed=5)
    data = sample_dataset(truth, 40, seed=6)
    config = FitConfig(n_clusters=3, prior=PriorConfig(), max_iterations=200,
                       tol=1e-15, restarts=1, seed=0)
    started = time.perf_counter()
    report = fit(data, config)
    elapsed = time.perf_counter() - started

    full_run = report.n_iterations == 200
    trace = np.asarray(report.trace)
    monotone = bool(np.all(np.diff(trace) > -1e-8))

    s_theta, s_p = omega_sums(report.theta, report.p, data)
    problem = _Problem(data, config.prior, 3)
    theta_formula = s_theta / problem.counts[:, :, None]
    p_formula = s_p / s_p.sum(axis=2, keepdims=True)
    theta_step, p_step, _ = _m_step(s_theta.transpose(0, 2, 1), s_p, (None, None),
                                    report.p.values, problem, "dynamic")
    theta_step = theta_step.transpose(0, 2, 1)
    formula_ok = (
        np.allclose(theta_step, theta_formula, atol=1e-12)
        and np.allclose(p_step, p_formula, atol=1e-12)
    )
    acceptance(
        "criterion-1 static-recovery",
        full_run and monotone and formula_ok and elapsed < 5.0,
        f"iterations={report.n_iterations} monotone={monotone} "
        f"formula={formula_ok} elapsed={elapsed:.2f}s",
    )


def test_criterion_2_decoupled_equivalence(acceptance):
    """beta=0 over 20 slices: jointly fitted slices match independent fits.

    Matched seeds, one restart, identical sweep budget; per-slice data
    likelihoods agree within 1e-6 relative.
    """
    truth = planted("sinusoidal", 20, 30, 0.1, pattern_seed=11)
    data = sample_dataset(truth, 6, seed=7)
    config = FitConfig(n_clusters=3, prior=PriorConfig(), max_iterations=40,
                       tol=1e-15, restarts=1, seed=13)
    joint = fit(data, config)
    epochs, nodes, labels, weights = data.compressed()
    worst = 0.0
    for t in range(data.n_epochs):
        rows = epochs == t
        slice_data = Dataset(nodes[rows], labels[rows], epochs[rows], data.n_items,
                             data.n_labels, data.n_epochs, weights=weights[rows])
        solo = fit(slice_data, config)
        joint_value = log_posterior(joint.theta, joint.p, slice_data)
        solo_value = log_posterior(solo.theta, solo.p, slice_data)
        worst = max(worst, abs(joint_value - solo_value) / abs(solo_value))
    acceptance(
        "criterion-2 per-epoch-equivalence",
        worst <= 1e-6,
        f"worst relative objective gap over 20 slices = {worst:.3e}",
    )


def _fig1_regime():
    truth = planted("sinusoidal", 200, 100, 0.05, pattern_seed=0)
    data = sample_dataset(truth, 5, seed=100)
    return truth, data


def test_criterion_3_smooth_pattern_recovery(acceptance):
    """Sinusoidal benchmark, known blocks: coupling beats both baselines.

    I=100, K=O=3, noise 0.05, 200 epochs, 5 observations per item per epoch,
    5 folds.  Mean aligned membership RMSE of the coupled model is below the
    decoupled and static baselines, mean test ROC-AUC is at least theirs, and
    each ordering holds on at least 4 of the 5 folds.  Budget: 10 minutes.
    """
    started = time.perf_counter()
    truth, data = _fig1_regime()
    template = FitConfig(n_clusters=3, p_mode="fixed", fixed_p=truth.p,
                         max_iterations=60, tol=1e-5, restarts=2, seed=0)
    plan = SplitPlan(seed=0)
    results = {
        result.family: result
        for result in cross_validate(data, FAMILIES, (1.0, 10.0, 100.0), plan,
                                     template=template, truth=truth)
    }
    rmse = {f: [o.metrics["rmse"] for o in results[f].folds] for f in FAMILIES}
    roc = {f: [o.metrics["roc"] for o in results[f].folds] for f in FAMILIES}
    mean_ok = (
        np.mean(rmse["sdsbm"]) < np.mean(rmse["nc"])
        and np.mean(rmse["sdsbm"]) < np.mean(rmse["static"])
        and np.mean(roc["sdsbm"]) >= np.mean(roc["nc"])
        and np.mean(roc["sdsbm"]) >= np.mean(roc["static"])
    )
    per_fold = lambda a, b, op: sum(op(x, y) for x, y in zip(a, b))  # noqa: E731
    fold_ok = (
        per_fold(rmse["sdsbm"], rmse["nc"], lambda x, y: x < y) >= 4
        and per_fold(rmse["sdsbm"], rmse["static"], lambda x, y: x < y) >= 4
        and per_fold(roc["sdsbm"], roc["nc"], lambda x, y: x >= y) >= 4
        and per_fold(roc["sdsbm"], roc["static"], lambda x, y: x >= y) >= 4
    )
    elapsed = time.perf_counter() - started
    acceptance(
        "criterion-3 smooth-pattern-recovery",
        mean_ok and fold_ok and elapsed < 600.0,
        "rmse sdsbm/nc/static = "
        f"{np.mean(rmse['sdsbm']):.4f}/{np.mean(rmse['nc']):.4f}/"
        f"{np.mean(rmse['static']):.4f}, roc = "
        f"{np.mean(roc['sdsbm']):.4f}/{np.mean(roc['nc']):.4f}/"
        f"{np.mean(roc['static']):.4f}, folds_ok={fold_ok}, "
        f"elapsed={elapsed:.0f}s",
    )


def test_criterion_4_scarcity_sweep(acceptance):
    """More observations: coupled recovery improves, baseline gap closes.

    100 epochs, 60 items, 1 / 10 / 100 observations per item per epoch.
    Aligned RMSE of the coupled model decreases monotonically with the budget
    and the coupled-minus-decoupled ROC-AUC gap at 100 is below the gap at 1.
    """
    truth = planted("sinusoidal", 100, 60, 0.05, pattern_seed=1)
    template = FitConfig(n_clusters=3, p_mode="fixed", fixed_p=truth.p,
                         max_iterations=60, tol=1e-5, restarts=1, seed=0)
    plan = SplitPlan(n_folds=1, seed=4)
    rmse, gap = {}, {}
    for count in (1, 10, 100):
        data = sample_dataset(truth, count, seed=200 + count)
        coupled, decoupled = cross_validate(data, ("sdsbm", "nc"), (10.0, 100.0), plan,
                                            template=template, truth=truth)
        rmse[count] = coupled.mean("rmse")
        gap[count] = coupled.mean("roc") - decoupled.mean("roc")
    monotone = rmse[1] > rmse[10] > rmse[100]
    closes = gap[100] < gap[1]
    acceptance(
        "criterion-4 scarcity-sweep",
        monotone and closes,
        f"rmse 1/10/100 = {rmse[1]:.4f}/{rmse[10]:.4f}/{rmse[100]:.4f}, "
        f"roc gap 1 -> 100 = {gap[1]:.4f} -> {gap[100]:.4f}",
    )


def test_criterion_5_entropy_sweep(acceptance):
    """Noisier blocks hurt every family; coupling still beats flat guessing.

    Noise s in {0.05, 0.2, 0.35, 0.5}, 50 epochs, 48 items, 10 observations
    per item per epoch, 3 folds per setting.  Spearman correlation between s
    and per-fold test ROC-AUC is negative with p < 0.05 for all three
    families, and the coupled model's aligned RMSE at s=0.5 stays below the
    uniform-membership baseline.  Piecewise-linear trajectories keep each
    item's time-averaged memberships distinctive, so the static baseline has
    real signal to lose (a whole-period sinusoid averages to uniform rows and
    parks that family at chance for every noise level).
    """
    noise_levels = (0.05, 0.2, 0.35, 0.5)
    plan = SplitPlan(n_folds=3, seed=5)
    xs = {family: [] for family in FAMILIES}
    rocs = {family: [] for family in FAMILIES}
    rmse_at_half = None
    uniform_baseline = None
    for noise in noise_levels:
        truth = planted("broken_line", 50, 48, noise, pattern_seed=2)
        data = sample_dataset(truth, 10, seed=int(1000 * noise))
        template = FitConfig(n_clusters=3, p_mode="fixed", fixed_p=truth.p,
                             max_iterations=60, tol=1e-5, restarts=1, seed=0)
        for result in cross_validate(data, FAMILIES, (3.0, 30.0), plan,
                                     template=template, truth=truth):
            family = result.family
            for outcome in result.folds:
                xs[family].append(noise)
                rocs[family].append(outcome.metrics["roc"])
            if family == "sdsbm" and noise == 0.5:
                rmse_at_half = result.mean("rmse")
                flat = np.full(truth.theta.values.shape, 1.0 / 3.0)
                uniform_baseline = rmse_aligned(flat, truth.theta)
    correlations = {}
    trend_ok = True
    for family in FAMILIES:
        rho, pvalue = stats.spearmanr(xs[family], rocs[family])
        correlations[family] = (rho, pvalue)
        trend_ok = trend_ok and (rho < 0) and (pvalue < 0.05)
    beats_uniform = rmse_at_half < uniform_baseline
    acceptance(
        "criterion-5 entropy-sweep",
        trend_ok and beats_uniform,
        "spearman "
        + " ".join(f"{f}={correlations[f][0]:.2f}(p={correlations[f][1]:.1e})"
                   for f in FAMILIES)
        + f", rmse@0.5 {rmse_at_half:.4f} < uniform {uniform_baseline:.4f}: "
        + str(bool(beats_uniform)),
    )


def test_criterion_6_property_suite(acceptance):
    """Invariant bundle, independent of any benchmark outcome."""
    checks = {}
    rng = np.random.default_rng(77)

    # row stochasticity after every M-step, tolerance 1e-9
    truth = planted("sinusoidal", 6, 12, 0.2, pattern_seed=3)
    data = sample_dataset(truth, 8, seed=30)
    prior = PriorConfig(beta_theta=4.0, beta_p=2.0)
    theta0 = random_memberships(6, 12, 3, seed=31)
    p0 = random_blocks(6, 3, 3, seed=32)
    s_theta, s_p = omega_sums(theta0, p0, data)
    problem = _Problem(data, prior, 3)
    theta1, p1, _ = _m_step(s_theta.transpose(0, 2, 1), s_p,
                            (problem.coupling.average(theta0.transpose(0, 2, 1)),
                             problem.coupling.average(p0)),
                            p0, problem, "dynamic")
    theta1 = theta1.transpose(0, 2, 1)
    report = fit(data, FitConfig(n_clusters=3, prior=prior, max_iterations=25,
                                 restarts=1, seed=33))
    checks["rows"] = (
        np.abs(theta1.sum(axis=2) - 1).max() <= 1e-9
        and np.abs(p1.sum(axis=2) - 1).max() <= 1e-9
        and np.abs(report.theta.values.sum(axis=2) - 1).max() <= 1e-9
        and np.abs(report.p.values.sum(axis=2) - 1).max() <= 1e-9
    )

    # responsibilities sum to one per observation, tolerance 1e-12
    totals = [
        responsibilities(theta0, p0, int(i), int(o), int(t)).sum()
        for i, o, t in zip(rng.integers(0, 12, 50), rng.integers(0, 3, 50),
                           rng.integers(0, 6, 50))
    ]
    checks["omega"] = max(abs(v - 1.0) for v in totals) <= 1e-12

    # the prior mode reproduces the neighbour average, tolerance 1e-12
    avg = problem.coupling.average(theta0)
    mode_gap = 0.0
    for t in range(6):
        alpha = concentration(theta0, data.epoch_counts, prior, t)
        for row, target in zip(alpha, avg[t]):
            mode = dirichlet_mode(row).values
            mode_gap = max(mode_gap, float(np.abs(mode - target).max()))
    checks["mode"] = mode_gap <= 1e-12

    # alignment error ignores cluster relabeling
    est = random_memberships(3, 8, 4, seed=34)
    tru = random_memberships(3, 8, 4, seed=35)
    base = rmse_aligned(est, tru)
    checks["rmse"] = all(
        abs(rmse_aligned(est[:, :, perm], tru) - base) <= 1e-12
        for perm in ([1, 0, 3, 2], [3, 2, 1, 0])
    )

    # rank-based AUC equals pair counting exactly on small tables
    auc_exact = True
    for _ in range(20):
        scores = rng.choice(np.linspace(0.1, 0.9, 5), size=(3, 3))
        labels = rng.integers(0, 3, size=3)
        table = score_table(scores, labels)
        flat = scores.ravel()
        positives = np.zeros(flat.size, dtype=bool)
        positives[np.arange(3) * 3 + labels] = True
        pos, neg = flat[positives], flat[~positives]
        brute = sum(
            1.0 if a > b else (0.5 if a == b else 0.0)
            for a in pos for b in neg
        ) / (pos.size * neg.size)
        auc_exact = auc_exact and (roc_auc(table) == brute)
    checks["auc"] = auc_exact

    # the sampler matches its law: chi-squared at the 1% level
    sample_truth = planted("sinusoidal", 2, 3, 0.3, pattern_seed=4)
    big = sample_dataset(sample_truth, 4000, seed=36)
    observed, expected = [], []
    for t in range(2):
        mix = sample_truth.theta.values[t] @ sample_truth.p.values[0]  # one shared slice
        for i in range(3):
            rows = (big.epochs == t) & (big.nodes == i)
            observed.extend(np.bincount(big.labels[rows], minlength=3))
            expected.extend(4000 * mix[i])
    statistic = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    dof = 2 * 3 * (3 - 1)
    checks["sampler"] = stats.chi2.sf(statistic, dof) > 0.01

    # archives round-trip bit for bit
    small = fit(data, FitConfig(n_clusters=3, prior=prior, max_iterations=8,
                                restarts=1, seed=37))
    archive = ModelArchive.from_fit(small)
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        path = tmp + "/model.npz"
        archive.save(path)
        loaded = ModelArchive.load(path)
        checks["archive"] = (
            np.array_equal(loaded.theta.values, archive.theta.values)
            and np.array_equal(loaded.p.values, archive.p.values)
            and np.array_equal(loaded.trace_tail, archive.trace_tail)
        )

    # the same seed reproduces the same fit, arrays equal to the bit
    again = fit(data, FitConfig(n_clusters=3, prior=prior, max_iterations=8,
                                restarts=1, seed=37))
    checks["determinism"] = (
        np.array_equal(small.theta.values, again.theta.values)
        and np.array_equal(small.p.values, again.p.values)
    )

    acceptance(
        "criterion-6 property-suite",
        all(checks.values()),
        " ".join(f"{name}={'ok' if ok else 'FAIL'}"
                 for name, ok in checks.items()),
    )


def test_criterion_7_coupling_smoothness(acceptance):
    """Stronger coupling never roughens the trajectory.

    Same data and seed across the whole default strength grid; the mean
    epoch-to-epoch membership step is monotonically non-increasing.
    """
    truth, data = _fig1_regime()
    steps = []
    for beta in DEFAULT_BETA_GRID:
        config = FitConfig(
            n_clusters=3, prior=PriorConfig(beta_theta=beta),
            p_mode="fixed", fixed_p=truth.p,
            max_iterations=50, tol=1e-6, restarts=1, seed=9,
        )
        report = fit(data, config)
        steps.append(float(np.abs(np.diff(report.theta.values, axis=0)).mean()))
    monotone = bool(np.all(np.diff(steps) <= 1e-12))
    acceptance(
        "criterion-7 coupling-smoothness",
        monotone,
        "mean steps over grid: " + " ".join(f"{v:.5f}" for v in steps),
    )


def test_criterion_8_linear_scaling(acceptance):
    """Per-iteration time at most 2.2x when the observation count doubles.

    500 items, 20 labels, 50 epochs, K=3; 1e5 vs 2e5 observations; identical
    iteration budget, timing taken as the best of three runs per size after a
    warm-up, the two sizes' runs interleaved so that a slow spell of the
    machine falls on both.
    """
    spec = PatternSpec(kind="broken_line", n_epochs=50, n_items=500,
                       n_clusters=3, seed=3)
    theta = generate_memberships(spec)
    rows = np.random.default_rng(12).dirichlet(np.ones(20), size=3)
    truth = GroundTruth(theta, BlockTensor(rows[None]), spec)
    config = FitConfig(
        n_clusters=3, prior=PriorConfig(beta_theta=1.0, beta_p=1.0),
        max_iterations=12, tol=1e-15, restarts=1, seed=0,
    )
    datasets = {
        100_000: sample_dataset(truth, 4, seed=21),
        200_000: sample_dataset(truth, 8, seed=22),
    }
    sizes_ok = all(len(data) == size for size, data in datasets.items())
    fit(datasets[100_000], config)  # warm-up
    timings = {size: [] for size in datasets}
    for _ in range(3):
        for size, data in datasets.items():
            timings[size].append(fit(data, config).diagnostics["seconds_per_iteration"])
    per_iteration = {size: min(values) for size, values in timings.items()}
    ratio = per_iteration[200_000] / per_iteration[100_000]
    acceptance(
        "criterion-8 linear-scaling",
        sizes_ok and ratio <= 2.2,
        f"seconds/iteration {per_iteration[100_000]:.4f} -> "
        f"{per_iteration[200_000]:.4f}, ratio {ratio:.2f} (budget 2.2)",
    )
