"""Standardization, marginal-model fitting, thresholding, averaging, measures."""

import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

import spar
import spar.ensemble as ensemble_mod
from conftest import dense
from spar.errors import (
    ConfigError,
    DataError,
    InsufficientDataError,
    NumericError,
    SingularError,
    whole_number,
)
from spar.families import BINOMIAL, GAUSSIAN, fit_penalized_glm, get_family
from spar.ensemble import (
    AveragedCoef,
    MarginalModel,
    ModelSpec,
    SparEnsemble,
    StandardizationStats,
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
from spar.projection import ProjectionMatrix, RpSpec, gen_cw, gen_gaussian, gen_haar, gen_sparse
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


def test_standardize_copy_is_f_ordered_and_leaves_x_alone():
    """x_std is column-major whatever x's layout, so every model's column gather is contiguous."""
    x = np.asfortranarray(np.random.default_rng(2).standard_normal((30, 8)))
    x0 = x.copy()
    x_std, _, stats = standardize(x, x[:, 0], "gaussian")
    assert x_std.flags.f_contiguous
    assert np.array_equal(x, x0)
    assert np.array_equal(x_std, (x0 - stats.x_mean) / stats.x_sd)


def _rows_problem(seed, n, p, family, fortran):
    """x with column offsets up to 1e4, some constant columns, and a y in family's domain."""
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-1e4, 1e4, p) * rng.integers(0, 2)
    x = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-3, 4) + offsets
    const = rng.random(p) < 0.1
    x[:, const] = offsets[const]
    y = {"gaussian": rng.standard_normal(n), "binomial": rng.integers(0, 2, n).astype(float),
         "poisson": rng.poisson(2.0, n).astype(float)}[family]
    return (np.asfortranarray(x) if fortran else x), y, rng


def _plain_standardized_x(x):
    """x_std and x_sd as np.std and one full-size subtraction give them."""
    sd = x.std(axis=0, ddof=1)
    sd = np.where((sd > 0) & (np.ptp(x, axis=0) > 0), sd, 1.0)
    x_std = (x - x.mean(axis=0)) / sd
    x_std[:, np.ptp(x, axis=0) == 0] = 0.0
    return x_std, sd


@given(st.integers(0, 2**32 - 1), st.integers(4, 60), st.sampled_from([1, 2, 255, 256, 257, 258,
       511, 512, 513]), st.sampled_from(["gaussian", "binomial", "poisson"]), st.booleans(),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_standardize_rows_equals_standardize_of_the_gathered_rows(seed, n, p, family, fortran,
                                                                  mask):
    """rows=r standardizes x[r] byte for byte, signed zeros included, as a separate x[r] copy
    does, and both give np.std's bits: gathering and standardizing 256 columns at a time into the
    column-major copy changes no bit on either side of a block edge, in either layout.  The
    caller's x is not written."""
    x, y, rng = _rows_problem(seed, n, p, family, fortran)
    rows = np.sort(rng.choice(n, size=rng.integers(3, n + 1), replace=False))
    x0 = x.copy(order="A")
    got = standardize(x, y, family, rows=np.isin(np.arange(n), rows) if mask else rows)
    want = standardize(x[rows], y[rows], family)
    assert x.tobytes(order="A") == x0.tobytes(order="A")
    assert got[0].flags.f_contiguous
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    for name, value in vars(want[2]).items():
        assert np.asarray(getattr(got[2], name)).tobytes() == np.asarray(value).tobytes(), name
    for a, (x_std, _, stats) in ((x[rows], got), (x, standardize(x, y, family))):
        plain_std, plain_sd = _plain_standardized_x(a)
        assert x_std.tobytes() == plain_std.tobytes()
        assert stats.x_sd.tobytes() == plain_sd.tobytes()


@pytest.mark.parametrize("fortran", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_standardize_rows_names_the_first_non_finite_entry_of_the_rows(bad, fortran):
    """A non-finite entry raises the DataError of a separate x[rows] copy: its (row, column) in
    that copy.  An entry outside the rows is not seen."""
    x, y, _ = _rows_problem(5, 12, 600, "gaussian", fortran)
    x[0, 5] = x[7, 300] = x[9, 2] = bad
    rows = np.array([1, 3, 7, 9, 11])
    with pytest.raises(DataError, match="non-finite predictor at row 2, column 300"):
        standardize(x[rows], y[rows], "gaussian")
    with pytest.raises(DataError, match="non-finite predictor at row 2, column 300"):
        standardize(x, y, "gaussian", rows=rows)
    with pytest.raises(DataError, match="non-finite predictor at row 0, column 5"):
        standardize(x, y, "gaussian")


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
    rows = np.arange(len(y))
    rp = kwargs.pop("rp", RpSpec()).resolved(len(y), x.shape[1])
    models = fit_models(xs, ys, fam, screen, rp, ModelSpec(), n_models, seed, rows, rows,
                        **kwargs)
    return models, stats


def test_fit_models_no_screening_when_p_small():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((100, 10))
    y = x @ np.arange(10.0) + rng.standard_normal(100)
    models, _ = _fit_default(x, y)
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
    rows = np.arange(n)
    models = fit_models(xs, ys, fam, ScreenSpec().resolved(n), RpSpec().resolved(n, p),
                        ModelSpec(), 1, 0, rows, rows, inds=[np.arange(p)], rpms=[eye])
    direct = fit_penalized_glm(xs, ys, "gaussian", 0.0)
    assert np.max(np.abs(models[0].beta_vals - direct.gamma)) < 1e-10


def test_fit_models_selects_a_fixed_kept_set_once(monkeypatch):
    """A "fixed" kept set does not depend on the model: one selection serves every model."""
    real, calls = ensemble_mod.select_screened, []
    monkeypatch.setattr(ensemble_mod, "select_screened",
                        lambda *args: calls.append(args) or real(*args))
    rng = np.random.default_rng(7)
    x = rng.standard_normal((30, 100))
    y = x[:, :3].sum(axis=1) + rng.standard_normal(30)
    xs, ys, _ = standardize(x, y, "gaussian")
    screen, rows = ScreenSpec(nscreen=20, selection_type="fixed"), np.arange(30)
    models = fit_models(xs, ys, GAUSSIAN, screen, RpSpec().resolved(30, 100), ModelSpec(), 5, 0,
                        rows, rows)
    kept = real(compute_screening(xs, ys, GAUSSIAN, screen), screen, None)
    assert len(calls) == 1 and kept.size == 20
    assert all(np.array_equal(m.index_set, kept) for m in models)


def test_fit_models_honors_supplied_inds_verbatim():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 30))
    y = rng.standard_normal(40)
    xs, ys, _ = standardize(x, y, "gaussian")
    fam = get_family("gaussian")
    inds = [np.array([5, 2, 9]), np.array([0, 1])]
    rows = np.arange(40)
    models = fit_models(xs, ys, fam, ScreenSpec().resolved(40),
                        RpSpec(data_driven=False, mslow=2, msup=2).validated().resolved(40, 30),
                        ModelSpec(), 2, 0, rows, rows, inds=inds)
    assert np.array_equal(models[0].index_set, inds[0])  # order preserved too
    assert np.array_equal(models[1].index_set, inds[1])
    for mdl, idx in zip(models, inds, strict=True):  # one coefficient per supplied index
        assert mdl.beta_vals.shape == idx.shape


@given(st.integers(0, 2**32 - 1), st.integers(10, 40), st.integers(5, 300),
       st.sampled_from(["gaussian", "binomial", "poisson"]),
       st.sampled_from(["cw", "gaussian", "sparse", "haar"]))
@settings(max_examples=40, deadline=None)
def test_fit_models_gives_the_same_models_from_c_and_f_ordered_x_std(seed, n, p, family, kind):
    """With inds and data-agnostic rpms supplied nothing reads the screening, and the models of a
    C- and an F-ordered x_std are byte-identical: only the screening sees x_std's layout."""
    x, y, rng = _rows_problem(seed, n, p, family, False)
    xs, ys, _ = standardize(x, y, family)
    draw = {"cw": lambda m, q: gen_cw(m, q, False, rng),
            "gaussian": lambda m, q: gen_gaussian(m, q, rng),
            "sparse": lambda m, q: gen_sparse(m, q, 0.5, rng),
            "haar": lambda m, q: gen_haar(m, q, rng)}[kind]
    inds = [np.sort(rng.choice(p, rng.integers(1, min(p, 60) + 1), replace=False))
            for _ in range(3)]
    rpms = [draw(int(rng.integers(1, idx.size + 1)), idx.size) for idx in inds]
    rows = np.arange(n)
    c_models, f_models = (fit_models(a, ys, get_family(family), ScreenSpec().resolved(n), None,
                                     ModelSpec(), 3, 0, rows, rows, inds=inds, rpms=rpms)
                          for a in (np.ascontiguousarray(xs), np.asfortranarray(xs)))
    for c, f in zip(c_models, f_models, strict=True):
        assert (c.gamma0, c.converged, c.failed) == (f.gamma0, f.converged, f.failed)
        assert c.gamma.tobytes() == f.gamma.tobytes()
        assert c.beta_vals.tobytes() == f.beta_vals.tobytes()


def test_fit_spar_draws_the_projections_left_none():
    """An rpms entry of None draws its projection, data-driven cw included, as without rpms."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 30))
    y = x[:, 2] + rng.standard_normal(40)
    common = dict(nnu=3, nummods=(2,), inds=[np.array([5, 2, 9]), np.arange(12)], seed=4)
    drawn = spar.fit_spar(x, y, **common)
    text = spar.serialize_model(drawn)
    assert spar.serialize_model(spar.fit_spar(x, y, rpms=[None, None], **common)) == text
    mixed = spar.fit_spar(x, y, rpms=[drawn.models[0].phi, None], **common)
    assert spar.serialize_model(mixed) == text


def test_fit_spar_refreshes_supplied_data_driven_cw_projections():
    """A supplied data-driven cw projection carries this fit's screening coefficients.

    The projections come from a fit on other data; their structure is
    kept and their values are this fit's omega at each index set.  A
    data_driven=False copy is used verbatim.
    """
    rng = np.random.default_rng(12)
    x1, x2 = rng.standard_normal((2, 40, 30))
    y1 = x1[:, 2] + rng.standard_normal(40)
    y2 = x2[:, 7] - x2[:, 3] + rng.standard_normal(40)
    common = dict(nnu=3, nummods=(3,), screen=ScreenSpec(nscreen=12), seed=2)
    first = spar.fit_spar(x1, y1, xval=x1, yval=y1, **common)
    inds = [m.index_set for m in first.models]
    rpms = [m.phi for m in first.models]
    assert all(phi.kind == "cw" and phi.data_driven for phi in rpms)
    second = spar.fit_spar(x2, y2, xval=x2, yval=y2, inds=inds, rpms=rpms, **common)
    xs, ys, _ = standardize(x2, y2, "gaussian")
    omega = compute_screening(xs, ys, GAUSSIAN, ScreenSpec(nscreen=12)).omega
    for mdl, phi in zip(second.models, rpms):
        assert np.array_equal(mdl.phi.mat.data, omega[mdl.index_set])
        assert not np.array_equal(mdl.phi.mat.data, phi.mat.data)
        assert np.array_equal(mdl.phi.rows, phi.rows)
    fixed = [ProjectionMatrix("cw", phi.mat, data_driven=False) for phi in rpms]
    kept = spar.fit_spar(x2, y2, xval=x2, yval=y2, inds=inds, rpms=fixed, **common)
    for mdl, phi in zip(kept.models, fixed):
        assert mdl.phi is phi


def test_fit_models_counts_an_overflowing_solve_as_failed():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((40, 4))
    y = (x[:, 0] + rng.standard_normal(40) > 0).astype(float)
    x[:, 1] *= 1e200  # model 0's Gram matrix overflows
    eye = ProjectionMatrix("plugin", np.eye(2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        models = fit_models(x, y, BINOMIAL, ScreenSpec().resolved(40),
                            RpSpec().resolved(40, 4), ModelSpec(), 2, 0,
                            np.arange(40), np.arange(40), inds=[[0, 1], [2, 3]], rpms=[eye, eye])
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert [m.failed for m in models] == [True, False]
    assert np.all(models[0].gamma == 0) and np.all(np.isfinite(models[1].gamma))


def test_fit_models_backmap_identity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((60, 50))
    y = rng.standard_normal(60)
    models, _ = _fit_default(x, y, n_models=3, seed=5)
    for mdl in models:
        assert np.max(np.abs(mdl.beta_vals - dense(mdl.phi).T @ mdl.gamma)) < 1e-12


def test_fit_models_all_failures_raise(monkeypatch):
    def always_singular(*args, **kwargs):
        raise SingularError("forced")

    monkeypatch.setattr(ensemble_mod, "fit_penalized_glm", always_singular)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 8))
    y = rng.standard_normal(30)
    with pytest.raises(NumericError):
        _fit_default(x, y, n_models=3)


def _fail_first_fit(monkeypatch, exc):
    """Make fit_models's first solve raise exc; returns the epsilon of every solve it asks for."""
    real, seen = ensemble_mod.fit_penalized_glm, []

    def flaky(z, y, fam, eps, *args):
        seen.append(eps)
        if len(seen) == 1:
            raise exc
        return real(z, y, fam, eps, *args)

    monkeypatch.setattr(ensemble_mod, "fit_penalized_glm", flaky)
    return seen


def _failure_problem():
    """30 rows and 8 columns, and gaussian projections: no solve is singular unless forced."""
    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 8))
    return x, rng.standard_normal(30), RpSpec(kind="gaussian")


def test_fit_models_refits_a_singular_eps0_solve_at_the_ridge(monkeypatch):
    """A SingularError at eps=0 refits that model at RIDGE_PER_ROW * n, bit for bit that fit,
    and no model fails."""
    x, y, rp = _failure_problem()
    seen = _fail_first_fit(monkeypatch, SingularError("forced"))
    models, _ = _fit_default(x, y, n_models=3, rp=rp)
    ridge = ensemble_mod.RIDGE_PER_ROW * 30
    assert seen == [0.0, ridge, 0.0, 0.0]
    assert [m.failed for m in models] == [False, False, False]
    xs, ys, _ = standardize(x, y, "gaussian")
    m0 = models[0]
    want = fit_penalized_glm(m0.phi.matmul(xs[:, m0.index_set]), ys, GAUSSIAN, ridge)
    assert (m0.gamma0, m0.converged) == (want.gamma0, want.converged)
    assert m0.gamma.tobytes() == want.gamma.tobytes()


def test_fit_models_partial_failure_records_zero_model(monkeypatch, caplog):
    """Any other solver error is not retried: the model is logged and recorded failed, with
    zero coefficients, and the others fit."""
    x, y, rp = _failure_problem()
    seen = _fail_first_fit(monkeypatch, NumericError("forced"))
    models, _ = _fit_default(x, y, n_models=3, rp=rp)
    assert seen == [0.0, 0.0, 0.0]
    assert [m.failed for m in models] == [True, False, False]
    assert models[0].gamma0 == 0.0 and not models[0].converged
    assert np.all(models[0].gamma == 0) and np.all(models[0].beta_vals == 0)
    assert "model 0 failed (forced); recording zero coefficients" in caplog.text


def test_fit_spar_gives_every_data_driven_cw_model_its_screening_values():
    """In a default fit every model's drawn cw matrix is data-driven and holds omega[index_set]
    of the fit's own screening, as a supplied one does."""
    rng = np.random.default_rng(14)
    x = rng.standard_normal((40, 200))
    y = x[:, 1] - x[:, 4] + rng.standard_normal(40)
    ens = spar.fit_spar(x, y, xval=x, yval=y, nnu=3, nummods=(6,), seed=3)
    xs, ys, _ = standardize(x, y, "gaussian")
    omega = compute_screening(xs, ys, GAUSSIAN, ScreenSpec().resolved(40)).omega
    for mdl in ens.models:
        assert mdl.phi.kind == "cw" and mdl.phi.data_driven
        assert np.array_equal(mdl.phi.mat.data, omega[mdl.index_set])


def test_nu_grid_frozen_quantile_example():
    stats = StandardizationStats(np.zeros(4), np.ones(4), 0.0, 1.0, np.array([], dtype=int))
    phi = ProjectionMatrix("plugin", np.array([[1.0, 2.0, 3.0, 4.0]]))
    mdl = MarginalModel(np.arange(4), phi, 0.0, np.ones(1), True)
    nus = build_nu_grid([mdl], 2)
    assert np.allclose(nus, [0.0, 2.5])
    assert np.allclose(build_nu_grid([mdl], 1), [0.0])
    assert np.allclose(build_nu_grid([mdl], 5, explicit=(0.3, 0.1)), [0.1, 0.3])


def test_nu_grid_all_zero_coefficients(caplog):
    phi = ProjectionMatrix("plugin", np.ones((1, 2)))
    mdl = MarginalModel(np.arange(2), phi, 0.0, np.zeros(1), True)
    with caplog.at_level(logging.WARNING, logger="spar.ensemble"):
        assert np.array_equal(build_nu_grid([mdl], 10), [0.0])
    assert [r.getMessage() for r in caplog.records] == [
        "all marginal coefficients are zero; nu grid degenerates to {0}"]


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
    return MarginalModel(np.arange(p), phi, gamma0, np.ones(1), True)


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
    models, stats2 = _fit_default(x, y, n_models=3, seed=11)
    c = averaged_coef(models, stats2, p, 0.0, 3)
    eta_orig = c.intercept + x @ c.beta
    gbar = np.mean([m.gamma0 for m in models])
    beta_std = np.zeros(p)
    for m in models:
        beta_std[m.index_set] += m.beta_vals / len(models)
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
        phi = ProjectionMatrix("plugin", beta.reshape(1, -1))  # beta_vals = phi.T @ [1] = beta
        models.append(MarginalModel(np.asarray(idx, dtype=int), phi, draw(st.floats(-2, 2)),
                                    np.ones(1), True))
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


_TIED_SCORES = st.sampled_from([-np.inf, -2.0, -0.0, 0.0, 1e-300, 0.5, 3.0, np.inf])


@given(st.lists(st.tuples(st.sampled_from([0.0, 1.0, 0.5]),
                          _TIED_SCORES | st.floats(allow_nan=False)), min_size=2, max_size=40),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_one_minus_auc_equals_exhaustive_pair_counting(rows, with_nan):
    """Tie-heavy draws: 1 - AUC is the share of (y == 1, y != 1) pairs won by the
    second, ties 1/2, bit for bit; a NaN score gives NaN."""
    y, mu = (np.array(col, dtype=float) for col in zip(*rows))
    pos, neg = mu[y == 1], mu[y != 1]
    assume(pos.size and neg.size)
    pairs = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg)
    expected = 1.0 - pairs / (pos.size * neg.size)
    if with_nan:
        mu[-1], expected = np.nan, np.nan
    np.testing.assert_equal(one_minus_auc(y, mu), expected)


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


@pytest.mark.parametrize("pair", [
    {"nu": float("nan")}, {"nu": -0.1}, {"nu": "0.1"}, {"nu": True},
    {"nummod": 2.5}, {"nummod": "3"}, {"nummod": True},
], ids=repr)
def test_coef_and_predict_refuse_a_bad_pair(pair):
    """nu must be a number >= 0 and nummod a whole number; neither is converted."""
    rng = np.random.default_rng(9)
    x = rng.standard_normal((40, 12))
    y = x[:, 0] + rng.standard_normal(40)
    ens = spar.fit_spar(x, y, nnu=3, nummods=(3,), seed=1)
    (name,) = pair
    with pytest.raises(ConfigError, match=f"{name} must be"):
        ens.coef(**pair)
    with pytest.raises(ConfigError, match=f"{name} must be"):
        ens.predict(x, **pair)
    assert type(ens.coef(nummod=np.int64(3)).nummod) is int


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


@pytest.mark.parametrize("make", [
    lambda: ScreenSpec(nscreen="5").validated(),
    lambda: RpSpec(b2="5").validated(),
    lambda: RpSpec(mslow="2").validated(),
    lambda: RpSpec(msup=True).validated(),
    lambda: ModelSpec(max_iter="5").validated(),
    lambda: whole_number("seed", True),
    lambda: whole_number("seed", np.True_),
    lambda: whole_number("seed", "7"),
], ids=["nscreen", "b2", "mslow", "msup", "max_iter", "True", "np.True_", "str"])
def test_sizes_refuse_strings_and_bools(make):
    """A size given as a string or a bool is a ConfigError, not converted or a bare TypeError."""
    with pytest.raises(ConfigError, match="must be a whole number"):
        make()


# fit arguments the specs do not hold, each as fit_spar_cv keywords
_BAD_FIT_ARGUMENTS = [
    {"seed": -1}, {"seed": 1.5}, {"seed": "7"}, {"seed": True},
    {"threads": 0}, {"threads": -3}, {"threads": 2.5},
    {"nnu": 2.5}, {"nnu": 0}, {"nus": []}, {"nus": [0.1, -1.0]}, {"nus": ["a"]},
    {"nfolds": 2.5}, {"nfolds": 1}, {"nfolds": 41},
]


@pytest.mark.parametrize("kwargs", _BAD_FIT_ARGUMENTS, ids=repr)
def test_fit_arguments_are_refused_before_the_fit(kwargs, monkeypatch):
    """Each bad argument is a ConfigError naming it, raised before standardize runs."""
    rng = np.random.default_rng(42)
    x = rng.standard_normal((40, 12))
    y = x[:, 0] + rng.standard_normal(40)
    monkeypatch.setattr("spar.api.standardize", lambda *a: pytest.fail("the fit started"))
    (name,) = kwargs
    with pytest.raises(ConfigError, match=name):
        spar.fit_spar_cv(x, y, **kwargs)
    if name != "nfolds":
        with pytest.raises(ConfigError, match=name):
            spar.fit_spar(x, y, **kwargs)
