"""Family functions and the penalized GLM solver against closed-form oracles."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit, gammaln, xlogy

import spar.families as families_mod
from spar.errors import ConfigError, DomainError, NumericError, SingularError
from spar.families import (
    BINOMIAL,
    BINOMIAL_MU_EPS,
    GAUSSIAN,
    POISSON,
    POISSON_MU_FLOOR,
    Family,
    _solve_wls,
    deviance_eval,
    fit_penalized_glm,
    get_family,
    link_eval,
    linkinv_eval,
    validate_response,
    variance_eval,
)


def test_get_family_by_name_and_passthrough():
    assert get_family("gaussian") is GAUSSIAN
    assert get_family(BINOMIAL) is BINOMIAL
    assert get_family(Family("binomial", "logit")) == BINOMIAL
    with pytest.raises(ConfigError):
        get_family("gamma")
    for family in (Family("binomial", "probit"), Family("gamma", "log")):
        with pytest.raises(ConfigError, match="unsupported family"):
            get_family(family)


def test_validate_response_domains():
    validate_response(BINOMIAL, [0.0, 1.0, 0.5])
    validate_response(POISSON, [0.0, 3.0, 10.0])
    with pytest.raises(DomainError) as exc:
        validate_response(BINOMIAL, [0.0, 1.2])
    assert "index 1" in str(exc.value)
    with pytest.raises(DomainError):
        validate_response(POISSON, [1.0, -2.0])
    with pytest.raises(DomainError):
        validate_response(GAUSSIAN, [1.0, np.nan])


def test_links_roundtrip_and_clamps():
    eta = np.array([-3.0, 0.0, 2.5])
    assert np.allclose(link_eval(GAUSSIAN, eta), eta)
    assert np.allclose(linkinv_eval(BINOMIAL, eta), expit(eta))
    assert np.allclose(linkinv_eval(POISSON, eta), np.exp(eta))
    # extreme linear predictors stay inside the family domain
    mu = linkinv_eval(BINOMIAL, np.array([-800.0, 800.0]))
    assert np.all(mu > 0) and np.all(mu < 1)
    mu = linkinv_eval(POISSON, np.array([-800.0, 800.0]))
    assert np.all(np.isfinite(mu)) and np.all(mu > 0)
    assert np.allclose(variance_eval(BINOMIAL, [0.25]), [0.1875])
    assert np.allclose(variance_eval(POISSON, [2.0]), [2.0])


def test_mean_clamps_hold_their_stated_values():
    """The binomial mean stops at 1e-10 from 0 and 1; the poisson mean at the 1e-10 floor and at
    exp(700), where the linear predictor is capped."""
    assert np.array_equal(linkinv_eval(BINOMIAL, [-800.0, 800.0]),
                          [BINOMIAL_MU_EPS, 1 - BINOMIAL_MU_EPS])
    assert np.array_equal(linkinv_eval(POISSON, [-800.0, 800.0]), [POISSON_MU_FLOOR, np.exp(700.0)])


def test_a_separated_binomial_fit_reaches_the_mean_clamp():
    """An unpenalized fit on a perfectly separated response converges with most fitted means on
    the clamp, and GlmFit.clamped counts them."""
    x = np.random.default_rng(0).standard_normal((12, 1))
    y = (x[:, 0] > 0).astype(float)
    fit = fit_penalized_glm(x, y, BINOMIAL, 0.0)
    mu = linkinv_eval(BINOMIAL, fit.gamma0 + x @ fit.gamma)
    assert fit.converged
    assert np.count_nonzero((mu == BINOMIAL_MU_EPS) | (mu == 1 - BINOMIAL_MU_EPS)) == 10
    assert fit.clamped == 10


def test_deviance_frozen_values():
    # gaussian deviance is the residual sum of squares
    assert deviance_eval(GAUSSIAN, np.array([1.0, 2.0]), np.array([0.0, 0.0])) == pytest.approx(5.0)
    # binomial y=1, mu=0.5: -2 log(0.5) = 2 log 2
    assert deviance_eval(BINOMIAL, np.array([1.0]), np.array([0.5])) == pytest.approx(
        1.3862943611198906, abs=1e-15
    )
    # poisson y=0, mu=1: 2 * (0 - (0 - 1)) = 2, with 0*log0 = 0
    assert deviance_eval(POISSON, np.array([0.0]), np.array([1.0])) == pytest.approx(2.0, abs=1e-15)
    assert deviance_eval(BINOMIAL, np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(0.0)


def _loglik(fam, y, mu):
    """Log-likelihood at mu, dispersion 1: the reference the deviance is checked against."""
    if fam is GAUSSIAN:
        return float(-0.5 * len(y) * np.log(2.0 * np.pi) - 0.5 * ((y - mu) ** 2).sum())
    if fam is BINOMIAL:
        return float((xlogy(y, mu) + xlogy(1.0 - y, 1.0 - mu)).sum())
    return float((xlogy(y, mu) - mu - gammaln(y + 1.0)).sum())


def test_deviance_equals_minus_twice_loglik_gap():
    """dev = -2 (loglik(mu) - loglik at the saturated mu=y), dispersion 1."""
    rng = np.random.default_rng(3)
    y_b = rng.integers(0, 2, 25).astype(float)
    mu_b = rng.uniform(0.05, 0.95, 25)
    gap = _loglik(BINOMIAL, y_b, mu_b) - _loglik(BINOMIAL, y_b, y_b)
    assert deviance_eval(BINOMIAL, y_b, mu_b) == pytest.approx(-2.0 * gap, rel=1e-12)

    y_p = rng.poisson(3.0, 25).astype(float)
    mu_p = rng.uniform(0.5, 6.0, 25)
    gap = _loglik(POISSON, y_p, mu_p) - _loglik(POISSON, y_p, y_p)
    assert deviance_eval(POISSON, y_p, mu_p) == pytest.approx(-2.0 * gap, rel=1e-12)

    y_g = rng.standard_normal(25)
    mu_g = rng.standard_normal(25)
    gap = _loglik(GAUSSIAN, y_g, mu_g) - _loglik(GAUSSIAN, y_g, y_g)
    assert deviance_eval(GAUSSIAN, y_g, mu_g) == pytest.approx(-2.0 * gap, rel=1e-12)


def test_deviance_never_negative_under_rounding():
    y = np.array([0.3, 0.7])
    assert deviance_eval(BINOMIAL, y, y) >= 0.0


# --- solver ----------------------------------------------------------------


def test_gaussian_unpenalized_matches_lstsq():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((30, 4))
    y = rng.standard_normal(30) * 3.0 + 2.0
    fit = fit_penalized_glm(z, y, "gaussian", 0.0)
    ref, *_ = np.linalg.lstsq(np.column_stack([np.ones(30), z]), y, rcond=None)
    assert np.max(np.abs(np.r_[fit.gamma0, fit.gamma] - ref)) < 1e-10
    assert fit.converged
    assert fit.deviance == pytest.approx(float(np.sum((y - ref[0] - z @ ref[1:]) ** 2)), rel=1e-12)


def test_gaussian_penalized_matches_block_normal_equations():
    """Oracle: [[n, 1'Z], [Z'1, Z'Z + eps I]] [g0, g] = [1'y, Z'y]."""
    rng = np.random.default_rng(12)
    n, m, eps = 25, 6, 1.7
    z = rng.standard_normal((n, m))
    y = rng.standard_normal(n)
    fit = fit_penalized_glm(z, y, "gaussian", eps)
    top = np.r_[n, z.sum(axis=0)]
    bottom = np.column_stack([z.sum(axis=0), z.T @ z + eps * np.eye(m)])
    ref = np.linalg.solve(np.vstack([top, bottom]), np.r_[y.sum(), z.T @ y])
    assert np.max(np.abs(np.r_[fit.gamma0, fit.gamma] - ref)) < 1e-10


def test_intercept_is_never_penalized():
    # shifting y shifts only the intercept, slopes are translation invariant
    rng = np.random.default_rng(13)
    z = rng.standard_normal((40, 3))
    y = rng.standard_normal(40)
    f1 = fit_penalized_glm(z, y, "gaussian", 5.0)
    f2 = fit_penalized_glm(z, y + 100.0, "gaussian", 5.0)
    assert np.allclose(f1.gamma, f2.gamma, atol=1e-9)
    assert f2.gamma0 - f1.gamma0 == pytest.approx(100.0, abs=1e-8)


def test_intercept_only_fits():
    fit = fit_penalized_glm(np.zeros((4, 0)), np.array([0.0, 1.0, 1.0, 1.0]), "binomial", 0.0)
    assert fit.gamma0 == pytest.approx(np.log(0.75 / 0.25), abs=1e-8)
    fit = fit_penalized_glm(np.zeros((3, 0)), np.array([1.0, 2.0, 3.0]), "gaussian", 0.0)
    assert fit.gamma0 == pytest.approx(2.0)
    fit = fit_penalized_glm(np.zeros((4, 0)), np.array([1.0, 2.0, 3.0, 6.0]), "poisson", 0.0)
    assert fit.gamma0 == pytest.approx(np.log(3.0), abs=1e-8)


def _penalized_negloglik(fam, z, y, eps):
    def obj(theta):
        eta = theta[0] + z @ theta[1:]
        mu = linkinv_eval(fam, eta)
        return deviance_eval(fam, y, mu) / 2.0 + eps / 2.0 * float(theta[1:] @ theta[1:])

    return obj


@pytest.mark.parametrize("family", ["binomial", "poisson"])
def test_irls_matches_generic_optimizer(family):
    rng = np.random.default_rng(21)
    n, m, eps = 60, 3, 0.3
    z = rng.standard_normal((n, m))
    eta = 0.4 + z @ np.array([0.8, -0.5, 0.3])
    fam = get_family(family)
    y = (rng.uniform(size=n) < expit(eta)).astype(float) if family == "binomial" else rng.poisson(np.exp(eta)).astype(float)
    fit = fit_penalized_glm(z, y, family, eps)
    res = minimize(_penalized_negloglik(fam, z, y, eps), np.zeros(m + 1), method="BFGS",
                   options={"gtol": 1e-10, "maxiter": 500})
    assert np.max(np.abs(np.r_[fit.gamma0, fit.gamma] - res.x)) < 1e-5
    assert fit.converged


@pytest.mark.parametrize("family", ["gaussian", "binomial", "poisson"])
def test_fit_never_beats_saturated_but_beats_intercept(family):
    rng = np.random.default_rng(31)
    z = rng.standard_normal((50, 4))
    eta = z @ np.array([1.0, -1.0, 0.5, 0.0])
    if family == "gaussian":
        y = eta + rng.standard_normal(50)
    elif family == "binomial":
        y = (rng.uniform(size=50) < expit(eta)).astype(float)
    else:
        y = rng.poisson(np.exp(0.3 * eta)).astype(float)
    full = fit_penalized_glm(z, y, family, 1e-4)
    null = fit_penalized_glm(np.zeros((50, 0)), y, family, 0.0)
    assert full.deviance <= null.deviance + 1e-8
    assert full.deviance >= -1e-10


def test_dual_solve_matches_primal_formula():
    """m > n with eps > 0 runs the n x n path; verify against the m x m system."""
    rng = np.random.default_rng(41)
    n, m, eps = 15, 40, 0.9
    z = rng.standard_normal((n, m))
    y = rng.standard_normal(n)
    fit = fit_penalized_glm(z, y, "gaussian", eps)
    zc = z - z.mean(axis=0)
    yc = y - y.mean()
    ref = np.linalg.solve(zc.T @ zc + eps * np.eye(m), zc.T @ yc)
    assert np.max(np.abs(fit.gamma - ref)) < 1e-9
    assert fit.gamma0 == pytest.approx(float(y.mean() - z.mean(axis=0) @ ref), abs=1e-9)


def test_singular_design_raises_without_penalty():
    rng = np.random.default_rng(51)
    col = rng.standard_normal(20)
    z = np.column_stack([col, col])
    y = rng.standard_normal(20)
    with pytest.raises(SingularError):
        fit_penalized_glm(z, y, "gaussian", 0.0)
    fit = fit_penalized_glm(z, y, "gaussian", 1e-4)  # any positive ridge rescues it
    assert np.all(np.isfinite(fit.gamma))


def test_wide_unpenalized_design_raises():
    rng = np.random.default_rng(52)
    z = rng.standard_normal((5, 9))
    with pytest.raises(SingularError):
        fit_penalized_glm(z, rng.standard_normal(5), "gaussian", 0.0)


def test_separated_binomial_finite_with_ridge():
    z = np.linspace(-2, 2, 20).reshape(-1, 1)
    y = (z.ravel() > 0).astype(float)
    fit = fit_penalized_glm(z, y, "binomial", 0.5)
    assert np.all(np.isfinite(fit.gamma))
    assert fit.converged


def test_fitted_deviance_matches_reported():
    rng = np.random.default_rng(61)
    z = rng.standard_normal((30, 2))
    y = rng.poisson(2.0, 30).astype(float)
    fit = fit_penalized_glm(z, y, "poisson", 0.1)
    mu = linkinv_eval(POISSON, fit.gamma0 + z @ fit.gamma)
    assert fit.deviance == pytest.approx(deviance_eval(POISSON, y, mu), rel=1e-10)


def test_solver_rejects_bad_input():
    with pytest.raises(DomainError):
        fit_penalized_glm(np.ones((4, 1)), np.array([0.0, 1.0, 2.0, 0.5]), "binomial", 0.0)
    with pytest.raises(ConfigError):
        fit_penalized_glm(np.ones((4, 1)), np.zeros(4), "gaussian", -1.0)
    for eps in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="finite"):
            fit_penalized_glm(np.ones((4, 1)), np.zeros(4), "gaussian", eps)


def test_overflowing_system_raises_numeric_error():
    rng = np.random.default_rng(71)
    z = rng.standard_normal((30, 3))
    y = rng.integers(0, 2, 30).astype(float)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError, match="non-finite"):
            fit_penalized_glm(z * 1e200, y, "binomial", 0.1)
        wide = rng.standard_normal((30, 40)) * 1e200  # the n x n dual system
        for family in ("gaussian", "binomial"):  # binomial builds the Gram matrix before IRLS
            with pytest.raises(NumericError, match="non-finite"):
                fit_penalized_glm(wide, y, family, 0.1)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("family", ["gaussian", "binomial"])
def test_dual_solve_keeps_one_weighted_copy_of_the_design(family, traced_peak):
    """A p > n fit makes no n x p copy of the design, only column blocks for the Gram matrix
    and for the finiteness check: peak below 0.5 x z.nbytes."""
    rng = np.random.default_rng(72)
    z = rng.standard_normal((50, 4000))
    y = (z[:, 0] > 0).astype(float)
    peak = traced_peak(lambda: fit_penalized_glm(z, y, family, 1.0))
    assert peak < 0.5 * z.nbytes, f"peak {peak / z.nbytes:.2f} x z.nbytes"


def _solve_wls_scipy(z, target, w, epsilon):
    """The weighted ridge solve through scipy.linalg.solve: the oracle _solve_wls must match."""
    n, m = z.shape
    if w is None:
        w = np.ones(n)
    sw = float(w.sum())
    zbar = (w @ z) / sw
    tbar = float(w @ target) / sw
    zc = z - zbar
    tc = target - tbar
    try:
        if m <= n:
            g = zc.T @ (w[:, None] * zc)
            g[np.diag_indices(m)] += epsilon
            gamma = scipy.linalg.solve(g, zc.T @ (w * tc), assume_a="pos")
        else:
            a = np.sqrt(w)[:, None] * zc
            k = a @ a.T
            k[np.diag_indices(n)] += epsilon
            gamma = a.T @ scipy.linalg.solve(k, np.sqrt(w) * tc, assume_a="pos")
    except np.linalg.LinAlgError as exc:
        raise SingularError(str(exc)) from exc
    return tbar - float(zbar @ gamma), gamma


def _relative_errors(z, target, w, eps):
    """(slopes, intercept) errors of _solve_wls against the oracle: the slopes' largest error over
    their largest entry, the intercept's over |tbar| + |zbar|.|gamma|, its formula's scale."""
    g0, g = _solve_wls(z, target, w, eps)
    r0, r = _solve_wls_scipy(z, target, w, eps)
    assert g.shape == r.shape
    w = np.ones(len(target)) if w is None else w
    scale = abs(w @ target) / w.sum() + np.abs(w @ z / w.sum()) @ np.abs(r)
    return np.max(np.abs(g - r)) / np.max(np.abs(r)), abs(g0 - r0) / scale


@given(
    shape=st.sampled_from(["m=1", "primal", "dual"]),
    n=st.integers(3, 40),
    weighted=st.booleans(),
    penalized=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_solve_wls_matches_scipy_solve(shape, n, weighted, penalized, seed):
    """Primal and 1 x 1 solves equal the oracle bit for bit.  The dual form works from the
    centred Gram matrix, not the oracle's centred copy: within 1e-12 (10,000 random systems of
    this law measured 1.6e-14 for the slopes, 6.4e-15 for the intercept)."""
    rng = np.random.default_rng(seed)
    m = {"m=1": 1, "primal": int(rng.integers(2, n - 1)) if n > 3 else 2,
         "dual": int(rng.integers(n + 1, 2 * n + 2))}[shape]
    eps = float(rng.uniform(0.01, 3.0)) if penalized or m > n else 0.0
    z = rng.standard_normal((n, m))
    target = rng.standard_normal(n)
    w = rng.uniform(0.05, 0.25, n) if weighted else None
    if shape == "dual":
        assert max(_relative_errors(z, target, w, eps)) <= 1e-12
        return
    g0, g = _solve_wls(z, target, w, eps)
    r0, r = _solve_wls_scipy(z, target, w, eps)
    assert g0 == r0
    assert g.shape == r.shape and np.array_equal(g, r)


@given(
    n=st.integers(3, 40),
    mean=st.floats(1.0, 1e5),
    weighted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_dual_solve_with_large_column_means_matches_scipy_solve(n, mean, weighted, seed):
    """Columns whose means reach 1e5 lose no more than 1e-9 to the Gram form (10,000 random
    systems with means up to 1e5 measured 1.4e-10 for the slopes, 1.9e-10 for the intercept)."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(n + 1, 2 * n + 2))
    z = rng.standard_normal((n, m)) + rng.uniform(-mean, mean, m)
    w = rng.uniform(0.05, 0.25, n) if weighted else None
    errors = _relative_errors(z, rng.standard_normal(n), w, float(rng.uniform(0.01, 3.0)))
    assert max(errors) <= 1e-9


def test_solve_wls_duplicated_column_singular_without_penalty():
    rng = np.random.default_rng(51)
    col = rng.standard_normal(20)
    z = np.column_stack([col, rng.standard_normal(20), col])
    target = rng.standard_normal(20)
    w = rng.uniform(0.05, 0.25, 20)
    for weights in (None, w):
        with pytest.raises(SingularError):
            _solve_wls_scipy(z, target, weights, 0.0)
        with pytest.raises(SingularError):
            _solve_wls(z, target, weights, 0.0)


def test_irls_path_frozen():
    """Iterations, convergence and deviance of two fixed IRLS fits: binomial primal, recorded on
    the scipy.linalg.solve implementation, and poisson dual, recorded on the Gram form (which
    moved its gamma0 by 1.3e-15 relative, not its deviance or iterations)."""
    rng = np.random.default_rng(2024)
    z = rng.standard_normal((80, 6))
    eta = 0.3 + z @ np.array([1.0, -0.5, 0.8, 0.0, 0.0, 0.2])
    y = (rng.uniform(size=80) < 1 / (1 + np.exp(-eta))).astype(float)
    fit = fit_penalized_glm(z, y, "binomial", 0.1)
    assert (fit.iterations, fit.converged, fit.deviance) == (6, True, 82.28723719781664)
    assert fit.gamma0 == 0.40680642212311613

    rng = np.random.default_rng(2025)
    z = rng.standard_normal((25, 40))
    y = rng.poisson(np.exp(0.5 + 0.3 * z[:, 0] - 0.2 * z[:, 1])).astype(float)
    fit = fit_penalized_glm(z, y, "poisson", 0.5)
    assert (fit.iterations, fit.converged, fit.deviance) == (8, True, 0.6559810999385709)
    assert fit.gamma0 == -0.3429145911302308


@pytest.mark.parametrize("family", ["binomial", "poisson"])
def test_irls_halving_exhaustion_ends_converged(family, monkeypatch):
    """A step whose full length and 30 halvings all fail to descend ends the loop with
    converged=True and the last accepted iterate; nothing else records it.  Forced: after the
    start and the first full step, every deviance reads 1e6 higher."""
    rng = np.random.default_rng(2026)
    z = rng.standard_normal((40, 3))
    eta = 0.2 + z @ np.array([0.8, -0.5, 0.3])
    y = ((rng.uniform(size=40) < expit(eta)) if family == "binomial"
         else rng.poisson(np.exp(eta))).astype(float)
    one_step = fit_penalized_glm(z, y, family, 0.1, max_iter=1)
    assert (one_step.converged, one_step.iterations) == (False, 1)

    true_deviance, calls = families_mod._deviance, []

    def rising_deviance(*args):
        calls.append(1)
        return true_deviance(*args) + (1e6 if len(calls) > 2 else 0.0)

    monkeypatch.setattr(families_mod, "_deviance", rising_deviance)
    fit = fit_penalized_glm(z, y, family, 0.1)
    assert (fit.converged, fit.iterations) == (True, 2)
    assert len(calls) == 2 + 31  # the start, the first step, then 31 rejected candidates
    assert fit.gamma0 == one_step.gamma0 and fit.deviance == one_step.deviance
    assert np.array_equal(fit.gamma, one_step.gamma)


def _same_fit(a, b):
    return (a.gamma0, a.converged, a.iterations, a.deviance) == (
        b.gamma0, b.converged, b.iterations, b.deviance) and np.array_equal(a.gamma, b.gamma)


@given(
    family=st.sampled_from(["binomial", "poisson"]),
    shape=st.sampled_from(["primal", "dual"]),
    n=st.integers(8, 40),
    bad=st.sampled_from([np.inf, -np.inf, np.nan]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_warm_start_reaches_the_cold_objective(family, shape, n, bad, seed):
    """A warm start changes the path, not the optimum: converged fits agree on the penalized
    objective, the cold solution restarts in at most two iterations, and a non-finite start
    (or none) is the intercept-only fit bit for bit.  Gaussian ignores start."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, n // 2)) if shape == "primal" else int(rng.integers(n + 1, 2 * n))
    eps = float(rng.uniform(0.1, 3.0))
    z = rng.standard_normal((n, m))
    eta = 0.3 + z @ rng.normal(0.0, 1.0 / np.sqrt(m), m)
    y = ((rng.uniform(size=n) < expit(eta)).astype(float) if family == "binomial"
         else rng.poisson(np.exp(eta)).astype(float))
    cold = fit_penalized_glm(z, y, family, eps)
    warm = fit_penalized_glm(z, y, family, eps,
                             start=(float(rng.normal()), rng.normal(0.0, 1.0 / np.sqrt(m), m)))
    objective = _penalized_negloglik(get_family(family), z, y, eps)
    if cold.converged and warm.converged:
        assert objective(np.r_[warm.gamma0, warm.gamma]) == pytest.approx(
            objective(np.r_[cold.gamma0, cold.gamma]), rel=1e-8)
    if cold.converged:
        assert fit_penalized_glm(z, y, family, eps, start=(cold.gamma0, cold.gamma)).iterations <= 2
    spoilt = cold.gamma.copy()
    spoilt[int(rng.integers(m))] = bad
    for start in (None, (cold.gamma0, spoilt), (bad, cold.gamma), (None, np.full(m, bad))):
        assert _same_fit(fit_penalized_glm(z, y, family, eps, start=start), cold)
    gauss = fit_penalized_glm(z, eta, "gaussian", eps)
    assert _same_fit(fit_penalized_glm(z, eta, "gaussian", eps, start=(1.0, cold.gamma)), gauss)
