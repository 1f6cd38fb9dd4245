"""Standardization, marginal-model fitting, thresholding, averaging, measures."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import spar
import spar.ensemble as ensemble_mod
from spar.errors import ConfigError, DataError, InsufficientDataError, NumericError, SingularError
from spar.families import BINOMIAL, GAUSSIAN, fit_penalized_glm, get_family
from spar.ensemble import (
    AveragedCoef,
    MarginalModel,
    ModelSpec,
    SparEnsemble,
    StandardizationStats,
    average_ranks,
    averaged_coef,
    build_nu_grid,
    coef_path,
    eval_measure,
    fit_models,
    one_minus_auc,
    predict_glm,
    standardize,
    threshold_beta,
)
from spar.projection import ProjectionMatrix, RpSpec, gen_cw
from spar.screening import ScreenSpec, compute_screening


def test_standardize_columns():
    x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    y = np.array([0.0, 1.0, 2.0])
    xs, ys, stats = standardize(x, y, "gaussian")
    assert np.allclose(xs[:, 0], [-1.0, 0.0, 1.0])  # sd over n-1 is 1 here
    assert np.all(xs[:, 1] == 0.0)
    assert list(stats.constant_cols) == [1]
    assert stats.x_sd[1] == 1.0
    assert np.allclose(ys, [-1.0, 0.0, 1.0])
    assert stats.y_mean == pytest.approx(1.0)
    assert stats.y_sd == pytest.approx(1.0)


def test_standardize_copy_is_c_ordered_and_leaves_x_alone():
    """load_csv's x is F-ordered; solves on a C-ordered x_std give the bits a row copy gives."""
    x = np.asfortranarray(np.random.default_rng(2).standard_normal((30, 8)))
    x0 = x.copy()
    x_std, _, stats = standardize(x, x[:, 0], "gaussian")
    assert x_std.flags.c_contiguous
    assert np.array_equal(x, x0)
    assert np.array_equal(x_std, (x0 - stats.x_mean) / stats.x_sd)


def test_standardize_formula_matches_two_point_example():
    # the (1,3) column example: mean 2, sd sqrt(2), entries -+1/sqrt(2)
    col = np.array([1.0, 3.0])
    z = (col - col.mean()) / col.std(ddof=1)
    assert np.allclose(z, [-0.7071067811865475, 0.7071067811865475])


def test_standardize_gate_and_sentinels():
    with pytest.raises(InsufficientDataError):
        standardize(np.ones((2, 1)), np.zeros(2), "gaussian")
    x = np.random.default_rng(0).standard_normal((6, 2))
    y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    xs, ys, stats = standardize(x, y, "binomial")
    assert np.array_equal(ys, y)  # only gaussian y gets standardized
    assert stats.y_mean == 0.0 and stats.y_sd == 1.0


def test_model_spec_epsilon_defaults():
    assert ModelSpec().resolve_epsilon(GAUSSIAN, 50) == 0.0
    assert ModelSpec().resolve_epsilon(BINOMIAL, 50) == pytest.approx(5e-3)
    assert ModelSpec(epsilon=2.0).resolve_epsilon(GAUSSIAN, 50) == 2.0
    for eps in (-0.1, np.nan, np.inf):
        with pytest.raises(ConfigError):
            ModelSpec(epsilon=eps).validated()


def _fit_default(x, y, family="gaussian", n_models=4, seed=0, **kwargs):
    fam = get_family(family)
    xs, ys, stats = standardize(x, y, family)
    screen = ScreenSpec().resolved(len(y))
    sr = compute_screening(xs, ys, fam, screen)
    rp = kwargs.pop("rp", RpSpec()).resolved(len(y), x.shape[1])
    models = fit_models(xs, ys, fam, sr, screen, rp, ModelSpec(), n_models, seed, **kwargs)
    return models, stats, sr


def test_fit_models_no_screening_when_p_small():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((100, 10))
    y = x @ np.arange(10.0) + rng.standard_normal(100)
    models, _, _ = _fit_default(x, y)
    for mdl in models:
        assert np.array_equal(mdl.index_set, np.arange(10))


def test_fit_models_identity_projection_matches_direct_glm():
    rng = np.random.default_rng(2)
    n, p = 50, 6
    x = rng.standard_normal((n, p))
    y = x @ np.array([1.0, -1.0, 0.5, 0.0, 2.0, 0.0]) + rng.standard_normal(n)
    xs, ys, stats = standardize(x, y, "gaussian")
    eye = ProjectionMatrix("plugin", np.eye(p))
    fam = get_family("gaussian")
    models = fit_models(xs, ys, fam, None, ScreenSpec().resolved(n), RpSpec().resolved(n, p),
                        ModelSpec(), 1, 0, inds=[np.arange(p)], rpms=[eye])
    direct = fit_penalized_glm(xs, ys, "gaussian", 0.0)
    assert np.max(np.abs(models[0].beta_vals - direct.gamma)) < 1e-10


def test_fit_models_honors_supplied_inds_verbatim():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 30))
    y = rng.standard_normal(40)
    xs, ys, _ = standardize(x, y, "gaussian")
    fam = get_family("gaussian")
    inds = [np.array([5, 2, 9]), np.array([0, 1])]
    models = fit_models(xs, ys, fam, None, ScreenSpec().resolved(40),
                        RpSpec(data_driven=False, mslow=2, msup=2).validated().resolved(40, 30),
                        ModelSpec(), 2, 0, inds=inds)
    assert np.array_equal(models[0].index_set, inds[0])  # order preserved too
    assert np.array_equal(models[1].index_set, inds[1])
    for mdl in models:
        assert np.all(mdl.beta_dense(30)[np.setdiff1d(np.arange(30), mdl.index_set)] == 0.0)


@pytest.mark.filterwarnings("ignore:.* encountered in matmul:RuntimeWarning")
def test_fit_models_counts_an_overflowing_solve_as_failed():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((40, 4))
    y = (x[:, 0] + rng.standard_normal(40) > 0).astype(float)
    x[:, 1] *= 1e200  # model 0's Gram matrix overflows
    eye = ProjectionMatrix("plugin", np.eye(2))
    models = fit_models(x, y, BINOMIAL, None, ScreenSpec().resolved(40), RpSpec().resolved(40, 4),
                        ModelSpec(), 2, 0, inds=[[0, 1], [2, 3]], rpms=[eye, eye])
    assert [m.failed for m in models] == [True, False]
    assert np.all(models[0].gamma == 0) and np.all(np.isfinite(models[1].gamma))


def test_fit_models_backmap_identity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((60, 50))
    y = rng.standard_normal(60)
    models, _, _ = _fit_default(x, y, n_models=3, seed=5)
    for mdl in models:
        assert np.max(np.abs(mdl.beta_vals - mdl.phi.to_dense().T @ mdl.gamma)) < 1e-12


def test_fit_models_all_failures_raise(monkeypatch):
    def always_singular(*args, **kwargs):
        raise SingularError("forced")

    monkeypatch.setattr(ensemble_mod, "fit_penalized_glm", always_singular)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 8))
    y = rng.standard_normal(30)
    with pytest.raises(NumericError):
        _fit_default(x, y, n_models=3)


def test_fit_models_partial_failure_records_zero_model(monkeypatch):
    real = ensemble_mod.fit_penalized_glm
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise SingularError("forced")
        return real(*args, **kwargs)

    monkeypatch.setattr(ensemble_mod, "fit_penalized_glm", flaky)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 8))
    y = rng.standard_normal(30)
    models, _, _ = _fit_default(x, y, n_models=3)
    # first model failed twice (eps=0 retry also routed through flaky? no: only
    # the first call raises), so it either recovered on retry or is zeroed
    assert sum(m.failed for m in models) <= 1
    assert len(models) == 3


def test_nu_grid_frozen_quantile_example():
    stats = StandardizationStats(np.zeros(4), np.ones(4), 0.0, 1.0, np.array([], dtype=int))
    phi = ProjectionMatrix("plugin", np.ones((1, 4)))
    mdl = MarginalModel(np.arange(4), phi, 0.0, np.ones(1), True, np.array([1.0, 2.0, 3.0, 4.0]))
    nus = build_nu_grid([mdl], 2)
    assert np.allclose(nus, [0.0, 2.5])
    assert np.allclose(build_nu_grid([mdl], 1), [0.0])
    assert np.allclose(build_nu_grid([mdl], 5, explicit=(0.3, 0.1)), [0.1, 0.3])


def test_nu_grid_all_zero_coefficients():
    phi = ProjectionMatrix("plugin", np.ones((1, 2)))
    mdl = MarginalModel(np.arange(2), phi, 0.0, np.zeros(1), True, np.zeros(2))
    assert np.array_equal(build_nu_grid([mdl], 10), [0.0])


def test_threshold_beta_strictness():
    beta = np.array([0.5, -0.01, 0.1])
    out = threshold_beta(beta, 0.1)
    assert np.array_equal(out, [0.5, 0.0, 0.1])  # |beta| == nu survives
    assert np.array_equal(threshold_beta(beta, 0.0), beta)
    assert np.array_equal(threshold_beta(beta, 1.0), np.zeros(3))


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=30),
       st.floats(0, 5), st.floats(0, 5))
@settings(max_examples=60, deadline=None)
def test_threshold_active_count_monotone(vals, nu1, nu2):
    beta = np.asarray(vals)
    lo, hi = sorted((nu1, nu2))
    assert np.count_nonzero(threshold_beta(beta, hi)) <= np.count_nonzero(threshold_beta(beta, lo))


def _identity_stats(p):
    return StandardizationStats(np.zeros(p), np.ones(p), 0.0, 1.0, np.array([], dtype=int))


def _coef_model(beta, gamma0=0.0):
    beta = np.asarray(beta, dtype=float)
    p = beta.size
    phi = ProjectionMatrix("plugin", beta.reshape(1, p))
    return MarginalModel(np.arange(p), phi, gamma0, np.ones(1), True, beta.copy())


def test_averaged_coef_simple_mean():
    models = [_coef_model([1.0, 0.0]), _coef_model([0.0, 1.0])]
    c = averaged_coef(models, _identity_stats(2), 2, 0.0, 2)
    assert np.allclose(c.beta, [0.5, 0.5])
    assert c.active == 2
    c1 = averaged_coef(models, _identity_stats(2), 2, 0.0, 1)
    assert np.allclose(c1.beta, [1.0, 0.0])
    with pytest.raises(ConfigError):
        averaged_coef(models, _identity_stats(2), 2, 0.0, 0)


def test_averaged_coef_destandardization_identity():
    """Predictions computed on the original scale match the standardized path."""
    rng = np.random.default_rng(7)
    n, p = 40, 12
    x = rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0, p) + rng.uniform(-2, 2, p)
    y = x @ rng.standard_normal(p) + rng.standard_normal(n)
    xs, ys, stats = standardize(x, y, "gaussian")
    models, stats2, _ = _fit_default(x, y, n_models=3, seed=11)
    c = averaged_coef(models, stats2, p, 0.0, 3)
    eta_orig = c.intercept + x @ c.beta
    gbar = np.mean([m.gamma0 for m in models])
    beta_std = np.mean([m.beta_dense(p) for m in models], axis=0)
    eta_std = gbar + xs @ beta_std
    assert np.max(np.abs(eta_orig - (stats.y_mean + stats.y_sd * eta_std))) < 1e-10


_NU_POOL = (0.0, 0.25, 0.5, 1.0)


@st.composite
def _path_cases(draw):
    """Small ensembles with random index sets, coefficients that are zero or
    exactly +-nu, random stats, and nummods in any order with repeats."""
    p = draw(st.integers(1, 8))
    nus = np.unique(draw(st.lists(st.sampled_from(_NU_POOL) | st.floats(0, 2), min_size=1, max_size=4)))
    pool = st.sampled_from(_NU_POOL)
    entry = pool | pool.map(lambda v: -v) | st.floats(-3, 3)
    models = []
    for _ in range(draw(st.integers(1, 5))):
        idx = np.sort(draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=p, unique=True)))
        beta = np.asarray(draw(st.lists(entry, min_size=idx.size, max_size=idx.size)), dtype=float)
        phi = ProjectionMatrix("plugin", np.zeros((1, idx.size)))
        models.append(MarginalModel(np.asarray(idx, dtype=int), phi, draw(st.floats(-2, 2)),
                                    np.zeros(1), True, beta))
    def vector(lo, hi):
        return draw(st.lists(st.floats(lo, hi), min_size=p, max_size=p).map(np.asarray))

    stats = StandardizationStats(vector(-3, 3), vector(0.1, 5),
                                 draw(st.floats(-3, 3)), draw(st.floats(0.1, 5)),
                                 np.array([], dtype=int))
    nummods = draw(st.lists(st.integers(1, len(models)), min_size=1, max_size=4))
    return models, stats, p, nus, nummods


def _brute_force_cell(models, stats, p, nu, nummod):
    dense = []
    for model in models[:nummod]:
        b = np.zeros(p)
        b[model.index_set] = model.beta_vals
        b[np.abs(b) < nu] = 0.0
        dense.append(b)
    beta = sum(dense) / nummod * stats.y_sd / stats.x_sd
    g0 = sum(model.gamma0 for model in models[:nummod]) / nummod
    return stats.y_mean + stats.y_sd * g0 - float(beta @ stats.x_mean), beta


@given(_path_cases())
@settings(max_examples=150, deadline=None)
def test_coef_path_cells_equal_brute_force(case):
    models, stats, p, nus, nummods = case
    cells = list(coef_path(models, stats, p, nus, nummods))
    assert [(c.nummod, c.nu) for c in cells] == [(m, float(nu)) for m in nummods for nu in nus]
    for c in cells:
        intercept, beta = _brute_force_cell(models, stats, p, c.nu, c.nummod)
        assert c.intercept == intercept
        assert np.array_equal(c.beta, beta)
        assert c.active == np.count_nonzero(beta)


def test_coef_path_refuses_out_of_range_nummods():
    models = [_coef_model([1.0, 0.0]), _coef_model([0.0, 1.0])]
    for nummods in ([3], [1, 0]):
        with pytest.raises(ConfigError, match=r"nummod must lie in \[1, 2\]"):
            list(coef_path(models, _identity_stats(2), 2, [0.0], nummods))
    with pytest.raises(ConfigError, match="nu must be >= 0"):
        list(coef_path(models, _identity_stats(2), 2, [0.0, -1.0], [1]))


def test_predict_binomial_frozen_averaging_examples():
    models = [_coef_model([0.0], gamma0=0.0), _coef_model([0.0], gamma0=2.0)]
    stats = _identity_stats(1)
    x = np.zeros((1, 1))
    link_avg = predict_glm(models, stats, BINOMIAL, x, 0.0, 2, "response", "link")
    assert link_avg[0] == pytest.approx(0.7310585786300049, abs=1e-12)
    resp_avg = predict_glm(models, stats, BINOMIAL, x, 0.0, 2, "response", "response")
    assert resp_avg[0] == pytest.approx(0.6903985389889411, abs=1e-12)
    eta = predict_glm(models, stats, BINOMIAL, x, 0.0, 2, "link", "response")
    assert expit(eta[0]) == pytest.approx(0.6903985389889411, abs=1e-12)


def test_predict_gaussian_avg_types_coincide():
    rng = np.random.default_rng(8)
    models = [_coef_model(rng.standard_normal(3), gamma0=0.3) for _ in range(4)]
    stats = _identity_stats(3)
    x = rng.standard_normal((9, 3))
    a = predict_glm(models, stats, GAUSSIAN, x, 0.0, 4, "response", "link")
    b = predict_glm(models, stats, GAUSSIAN, x, 0.0, 4, "response", "response")
    assert np.max(np.abs(a - b)) < 1e-12


def test_predict_validates_shapes_and_enums():
    models = [_coef_model([1.0, 2.0])]
    stats = _identity_stats(2)
    with pytest.raises(DataError):
        predict_glm(models, stats, GAUSSIAN, np.ones((3, 5)), 0.0, 1, "response", "link")
    with pytest.raises(ConfigError):
        predict_glm(models, stats, GAUSSIAN, np.ones((3, 2)), 0.0, 1, "nope", "link")
    with pytest.raises(ConfigError):
        predict_glm(models, stats, GAUSSIAN, np.ones((3, 2)), 0.0, 1, "link", "nope")


def test_eval_measure_frozen_values():
    assert eval_measure("mse", GAUSSIAN, np.array([1.0, 2.0]), np.array([1.0, 4.0])) == 2.0
    assert eval_measure("mae", GAUSSIAN, np.array([1.0, 2.0]), np.array([1.0, 4.0])) == 1.0
    assert eval_measure("class", BINOMIAL, np.array([0.0, 1.0]), np.array([0.4, 0.3])) == 0.5
    assert eval_measure("1-auc", BINOMIAL, np.array([0.0, 0.0, 1.0, 1.0]),
                        np.array([0.1, 0.4, 0.35, 0.8])) == pytest.approx(0.25, abs=1e-15)
    y = np.array([1.0, 0.0])
    mu = np.array([0.7, 0.2])
    from spar.families import deviance_eval

    assert eval_measure("deviance", BINOMIAL, y, mu) == pytest.approx(deviance_eval(BINOMIAL, y, mu))


def test_eval_measure_family_gates():
    with pytest.raises(ConfigError):
        eval_measure("class", GAUSSIAN, np.zeros(3), np.zeros(3))
    with pytest.raises(ConfigError):
        eval_measure("1-auc", GAUSSIAN, np.zeros(3), np.zeros(3))
    with pytest.raises(ConfigError):
        eval_measure("r2", GAUSSIAN, np.zeros(3), np.zeros(3))


def test_one_minus_auc_tie_handling():
    y = np.array([0.0, 1.0])
    mu = np.array([0.5, 0.5])
    assert one_minus_auc(y, mu) == pytest.approx(0.5)
    with pytest.raises(DataError):
        one_minus_auc(np.zeros(4), np.linspace(0, 1, 4))  # needs both classes


@given(st.lists(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1e-300, 3.0, np.inf]), max_size=40)
       | st.lists(st.floats(allow_nan=False), max_size=40)
       | st.lists(st.sampled_from([0.5, 1.0, np.nan]), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_average_ranks_equal_scipy_rankdata(values):
    import scipy.stats

    a = np.asarray(values, dtype=float)
    np.testing.assert_array_equal(average_ranks(a), scipy.stats.rankdata(a))  # NaN == NaN here


def test_import_spar_leaves_scipy_stats_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(spar.__file__).resolve().parents[1]))
    res = subprocess.run(
        [sys.executable, "-c", "import sys, spar; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


@given(st.integers(2, 30), st.integers(0, 10_000),
       st.sampled_from(["exp", "affine", "cube"]))
@settings(max_examples=40, deadline=None)
def test_one_minus_auc_monotone_transform_invariant(n, seed, transform):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    mu = rng.choice([0.1, 0.25, 0.5, 0.8], size=n)  # ties on purpose
    base = one_minus_auc(y, mu)
    f = {"exp": np.exp, "affine": lambda v: 3.0 * v + 1.0, "cube": lambda v: v**3}[transform]
    assert one_minus_auc(y, f(mu)) == pytest.approx(base, abs=1e-12)


def test_ensemble_object_coef_and_predict():
    rng = np.random.default_rng(9)
    n, p = 60, 40
    x = rng.standard_normal((n, p))
    y = x[:, 0] * 2.0 + rng.standard_normal(n)
    from spar import fit_spar

    ens = fit_spar(x, y, nummods=(3,), seed=1)
    nu_b, m_b = ens.best
    c = ens.coef()
    assert c.nu == nu_b and c.nummod == m_b
    mu = ens.predict(x)
    assert mu.shape == (n,)
    assert np.allclose(mu, c.intercept + x @ c.beta)
    with pytest.raises(ConfigError):
        ens.coef(opt_par="second_best")
    with pytest.raises(ConfigError):
        ens.coef(opt_par="1se")  # validation fit has no 1se pair
    cm = ens.coef_matrix()
    assert cm.shape == (p, 3)
    assert np.allclose(cm[ens.models[0].index_set, 0], ens.models[0].beta_vals)


# each size option as fit_spar keywords, at a value v
_SIZE_OPTIONS = {
    "nummods": lambda v: {"nummods": (v,)},
    "mslow": lambda v: {"rp": RpSpec(mslow=v, msup=6)},
    "msup": lambda v: {"rp": RpSpec(mslow=2, msup=v)},
    "b2": lambda v: {"rp": RpSpec(kind="haar_select", b2=v, msup=4)},
    "nscreen": lambda v: {"screen": ScreenSpec(nscreen=v)},
    "max_iter": lambda v: {"model": ModelSpec(max_iter=v)},
}


@pytest.mark.parametrize("name", _SIZE_OPTIONS)
def test_sizes_must_be_whole_numbers(name):
    """2.5 is refused, not truncated; 5, 5.0 and np.int64(5) fit the same model."""
    rng = np.random.default_rng(41)
    x = rng.standard_normal((40, 30))
    y = (x[:, 0] + rng.standard_normal(40) > 0).astype(float)

    def fit(v):
        return spar.fit_spar(x, y, family="binomial", nnu=3, **_SIZE_OPTIONS[name](v))

    with pytest.raises(ConfigError, match=f"{name} must be a whole number, got 2.5"):
        fit(2.5)
    texts = {spar.serialize_model(fit(v)) for v in (5, 5.0, np.int64(5))}
    assert len(texts) == 1
