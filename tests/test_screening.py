"""Screening coefficients and the weighted selection draw."""

import ast
import logging
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from spar import screening
from spar.errors import ConfigError, DataError
from spar.families import BINOMIAL, GAUSSIAN, deviance_eval, get_family, linkinv_eval
from spar.plugins import resolve
from spar.screening import (
    ScreeningResult,
    ScreenSpec,
    _smallest,
    compute_screening,
    register_screen_plugin,
    select_screened,
    split_for_screening,
)


def _screen(x, y, family=GAUSSIAN, **spec):
    return compute_screening(x, y, family, ScreenSpec(**spec))


def test_screen_cor_frozen_value():
    x = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1.0, 3.0, 2.0])
    res = _screen(x, y, method="cor")
    assert res.omega[0] == pytest.approx(0.5, abs=1e-15)


def test_screen_cor_constant_column_excluded():
    x = np.column_stack([np.ones(5), np.arange(5.0)])
    res = _screen(x, np.arange(5.0), method="cor")
    assert res.omega[0] == 0.0
    assert list(res.excluded) == [0]
    assert res.omega[1] == pytest.approx(1.0)


def test_screen_ridge_constant_column_zeroed():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((20, 3))
    x[:, 1] = 4.0
    res = _screen(x, rng.standard_normal(20), method="ridge", epsilon=1.0)
    assert res.omega[1] == 0.0
    assert list(res.excluded) == [1]


def test_screen_marglik_gaussian_matches_simple_regression():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((40, 6))
    y = x @ np.array([1.0, -2.0, 0.0, 0.5, 0.0, 3.0]) + rng.standard_normal(40)
    res = _screen(x, y, method="marglik", epsilon=0.0)
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    slopes = xc.T @ yc / (xc**2).sum(axis=0)
    assert np.max(np.abs(res.omega - slopes)) < 1e-8


def test_screen_marglik_binomial_toy_sign_and_value():
    x = np.array([[-1.0], [-1.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    res = _screen(x, y, BINOMIAL, method="marglik", epsilon=0.01)
    assert res.omega[0] > 0
    # oracle: profile the penalized deviance over the slope on a 1-d grid
    def profiled(b):
        best = minimize_scalar(
            lambda b0: deviance_eval(BINOMIAL, y, linkinv_eval(BINOMIAL, b0 + b * x[:, 0])) / 2.0
        )
        return best.fun + 0.01 / 2.0 * b * b

    opt = minimize_scalar(profiled, bounds=(0.0, 20.0), method="bounded")
    assert res.omega[0] == pytest.approx(opt.x, abs=1e-4)


def test_screen_marglik_constant_y_gives_zero():
    x = np.random.default_rng(0).standard_normal((10, 3))
    res = _screen(x, np.full(10, 2.0), method="marglik", epsilon=0.0)
    assert np.all(res.omega == 0.0)


def test_screen_marglik_failed_fits_are_counted_and_logged(caplog):
    """A column of subnormal values is not constant, but its centred square sum underflows to 0:
    its univariate solve is singular, so it scores 0 and counts in failed_fits."""
    rng = np.random.default_rng(13)
    x = rng.standard_normal((12, 5))
    y = x[:, 0] + rng.standard_normal(12)
    x[:, 1], x[:, 3] = 0.0, 0.0
    x[0, 1], x[[2, 5], 3] = 5e-324, 1e-300
    with caplog.at_level(logging.WARNING, logger="spar.screening"):
        res = _screen(x, y, method="marglik")
    assert res.failed_fits == 2
    assert res.excluded.size == 0 and res.omega[1] == res.omega[3] == 0.0
    assert np.all(res.omega[[0, 2, 4]] != 0.0)
    assert [r.getMessage() for r in caplog.records] == [
        "marginal screening: 2 of 5 univariate fits failed"]


def test_screen_ridge_small_p_matches_ols():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((50, 4))
    y = x @ np.array([1.0, 0.5, -1.0, 2.0]) + 0.1 * rng.standard_normal(50)
    res = _screen(x, y, method="ridge", epsilon=1e-8)
    xc = x - x.mean(axis=0)
    ref, *_ = np.linalg.lstsq(xc, y - y.mean(), rcond=None)
    assert np.max(np.abs(res.omega - ref)) < 1e-4


def test_screen_ridge_dual_matches_primal_wide():
    rng = np.random.default_rng(9)
    n, p, eps = 12, 30, 0.7
    x = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    res = _screen(x, y, method="ridge", epsilon=eps)
    xc = x - x.mean(axis=0)
    ref = np.linalg.solve(xc.T @ xc + eps * np.eye(p), xc.T @ (y - y.mean()))
    assert np.max(np.abs(res.omega - ref)) < 1e-10


def test_screen_ridge_binomial_runs_and_orders():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((60, 5))
    eta = 2.0 * x[:, 0]
    y = (rng.uniform(size=60) < linkinv_eval(BINOMIAL, eta)).astype(float)
    res = _screen(x, y, BINOMIAL, method="ridge", epsilon=1.0)
    assert np.argmax(np.abs(res.omega)) == 0


def test_compute_screening_dispatch_and_default_epsilon():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((30, 4))
    y = rng.standard_normal(30)
    spec = ScreenSpec(method="ridge").resolved(30)
    res = compute_screening(x, y, GAUSSIAN, spec)
    assert np.array_equal(res.omega, _screen(x, y, method="ridge", epsilon=1e-2 * 30).omega)
    assert not np.allclose(res.omega, _screen(x, y, method="ridge", epsilon=0.0).omega)
    marglik = _screen(x, y, method="marglik")  # its default is no penalty
    assert np.array_equal(marglik.omega, _screen(x, y, method="marglik", epsilon=0.0).omega)
    assert not np.allclose(marglik.omega, res.omega)
    cor = _screen(x, y, method="cor")
    assert np.allclose(cor.omega, [np.corrcoef(x[:, j], y)[0, 1] for j in range(4)], atol=1e-14)
    assert spec.nscreen == 60  # resolved default is 2n


def test_compute_screening_warm_starts_only_ridge(monkeypatch):
    """start reaches the ridge solve and no other method's."""
    seen = []
    real = screening.fit_penalized_glm

    def spy(*args, **kwargs):
        seen.append(kwargs.get("start"))
        return real(*args, **kwargs)

    monkeypatch.setattr(screening, "fit_penalized_glm", spy)
    x = np.random.default_rng(14).standard_normal((10, 3))
    y = np.r_[np.ones(5), np.zeros(5)]
    start = (None, np.full(3, 0.1))
    for method in ("cor", "marglik", "ridge"):
        compute_screening(x, y, BINOMIAL, ScreenSpec(method=method), start)
    assert seen[:3] == [None] * 3 and seen[3] is start and len(seen) == 4


def _colsum(x, y, controls):
    return np.abs(x).sum(axis=0) + 1.0


@given(method=st.sampled_from(["cor", "marglik", "ridge", "plugin"]),
       family=st.sampled_from(["gaussian", "binomial"]), n=st.integers(4, 12),
       p=st.integers(1, 8), data=st.data(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_compute_screening_zeroes_exactly_the_constant_columns(method, family, n, p, data, seed):
    """Under every method, excluded lists the injected constant columns, omega is 0 there, and
    the other columns score as they do with the constant columns left out."""
    const = np.asarray(sorted(data.draw(st.sets(st.integers(0, p), max_size=p))), dtype=int)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p + 1))
    x[:, const] = data.draw(st.sampled_from([0.0, 0.1, -4.0, 1e5]))
    y = rng.standard_normal(n)
    if family == "binomial":
        y = (y > 0).astype(float)
    spec = ScreenSpec(method=method, plugin=_colsum if method == "plugin" else None)
    res = compute_screening(x, y, get_family(family), spec)
    assert np.array_equal(res.excluded, const)
    assert np.all(res.omega[const] == 0.0)
    kept = np.delete(np.arange(p + 1), const)  # never empty: at most p of p + 1 are constant
    alone = compute_screening(x[:, kept], y, get_family(family), spec)
    assert np.allclose(res.omega[kept], alone.omega, rtol=1e-8, atol=1e-10)


def test_compute_screening_is_the_one_way_to_screen():
    """spar.screening defines six public names, and in src/spar only compute_screening builds
    a ScreeningResult."""
    public = {name for name, value in vars(screening).items()
              if not name.startswith("_") and getattr(value, "__module__", None) == screening.__name__}
    assert public == {"ScreenSpec", "ScreeningResult", "compute_screening", "select_screened",
                      "split_for_screening", "register_screen_plugin"}
    builders = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "spar").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            builders += [f"{path.stem}.{getattr(top, 'name', '<module>')}" for node in ast.walk(top)
                         if isinstance(node, ast.Call)
                         and getattr(node.func, "id", None) == "ScreeningResult"]
    assert builders == ["screening.compute_screening"]


def test_screen_plugin_roundtrip_and_validation():
    def my_screen(x, y, controls):
        return np.abs(x).sum(axis=0)

    register_screen_plugin("colsum_ref", my_screen)
    assert resolve("screening", "colsum_ref") is my_screen
    x = np.random.default_rng(1).standard_normal((10, 3))
    spec = ScreenSpec(method="plugin", plugin="colsum_ref").validated().resolved(10)
    res = compute_screening(x, np.zeros(10), GAUSSIAN, spec)
    assert np.allclose(res.omega, np.abs(x).sum(axis=0))

    bad = ScreenSpec(method="plugin", plugin=lambda x, y, controls: np.ones(2)).resolved(10)
    with pytest.raises(DataError):
        compute_screening(x, np.zeros(10), GAUSSIAN, bad)
    with pytest.raises(ConfigError):
        compute_screening(x, np.zeros(10), GAUSSIAN, ScreenSpec(method="plugin", plugin="nope"))


def test_screen_spec_method_may_name_a_registered_plugin():
    def colsum(x, y, controls):
        return np.abs(x).sum(axis=0)

    register_screen_plugin("colsum_by_method", colsum)
    spec = ScreenSpec(method="colsum_by_method", nscreen=5.0).validated()
    assert spec == ScreenSpec(method="plugin", plugin="colsum_by_method", nscreen=5)
    with pytest.raises(ConfigError, match="method must be 'plugin'"):
        ScreenSpec(method="colsum_by_method", plugin=colsum).validated()
    for method in ("unknown", None):
        with pytest.raises(ConfigError) as exc:
            ScreenSpec(method=method).validated()
        assert str(exc.value) == (
            f"unknown screening method {method!r}; builtins are cor, marglik, ridge, "
            "and no screening plugin is registered under that name")


def test_spec_validation():
    with pytest.raises(ConfigError):
        ScreenSpec(method="unknown").validated()
    with pytest.raises(ConfigError):
        ScreenSpec(selection_type="sometimes").validated()
    with pytest.raises(ConfigError):
        ScreenSpec(split_data_prop=1.5).validated()
    with pytest.raises(ConfigError):
        ScreenSpec(nscreen=0).validated()
    for eps in (-1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="epsilon"):
            ScreenSpec(epsilon=eps).validated()


# --- selection -------------------------------------------------------------


def _result(omega, excluded=()):
    from spar.screening import ScreeningResult

    omega = np.asarray(omega, dtype=float)
    return ScreeningResult(omega=omega, excluded=np.asarray(excluded, dtype=int), failed_fits=0)


def test_select_fixed_top_ranked():
    sel = select_screened(_result([3.0, 1.0, 2.0]), ScreenSpec(nscreen=2, selection_type="fixed"),
                          np.random.default_rng(0))
    assert sorted(sel) == [0, 2]


def test_select_fixed_tie_prefers_smaller_index():
    sel = select_screened(_result([1.0, 2.0, 2.0, 1.0]), ScreenSpec(nscreen=3, selection_type="fixed"),
                          np.random.default_rng(0))
    assert sorted(sel) == [0, 1, 2]


def test_select_no_screening_when_nscreen_covers_all():
    res = _result([0.5, 1.0, 0.0, 2.0])
    sel = select_screened(res, ScreenSpec(nscreen=10, selection_type="prob"), np.random.default_rng(0))
    assert list(sel) == [0, 1, 2, 3]


def test_select_excluded_columns_never_chosen():
    res = _result([1.0, 1.0, 1.0, 1.0], excluded=[2])
    for seed in range(20):
        sel = select_screened(res, ScreenSpec(nscreen=3, selection_type="prob"),
                              np.random.default_rng(seed))
        assert 2 not in sel
    sel = select_screened(res, ScreenSpec(nscreen=3, selection_type="fixed"), np.random.default_rng(0))
    assert 2 not in sel


def test_select_prob_zero_weights_only_as_fallback():
    res = _result([5.0, 0.0, 0.0, 4.0, 3.0])
    for seed in range(30):
        sel = select_screened(res, ScreenSpec(nscreen=3, selection_type="prob"),
                              np.random.default_rng(seed))
        assert 1 not in sel and 2 not in sel
    # only one positive weight: the remaining slots fill from the zeros
    res = _result([0.0, 0.0, 0.0, 1.0])
    counts = np.zeros(4)
    for seed in range(300):
        sel = select_screened(res, ScreenSpec(nscreen=3, selection_type="prob"),
                              np.random.default_rng(seed))
        assert 3 in sel and len(sel) == 3
        counts[sel] += 1
    # each zero-weight column should appear in about 2/3 of the draws
    assert np.all(counts[:3] > 300 * 2 / 3 - 3 * np.sqrt(300 * 2 / 9))


def test_select_prob_first_draw_law():
    """P(select index 0) = 2/4 for weights (2,1,1) and nscreen=1."""
    res = _result([2.0, 1.0, 1.0])
    spec = ScreenSpec(nscreen=1, selection_type="prob")
    rng = np.random.default_rng(123)
    n_draws = 20_000
    hits = sum(select_screened(res, spec, rng)[0] == 0 for _ in range(n_draws))
    se = np.sqrt(0.25 / n_draws)
    assert abs(hits / n_draws - 0.5) < 3 * se


def test_select_prob_output_sorted_and_deterministic():
    res = _result(np.arange(1.0, 9.0))
    spec = ScreenSpec(nscreen=4, selection_type="prob")
    a = select_screened(res, spec, np.random.default_rng(5))
    b = select_screened(res, spec, np.random.default_rng(5))
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) > 0)


def test_select_prob_invariant_to_weight_rescaling():
    res1 = _result([2.0, 1.0, 4.0, 0.5, 1.5])
    res2 = _result([4.0, 2.0, 8.0, 1.0, 3.0])
    spec = ScreenSpec(nscreen=2, selection_type="prob")
    a = select_screened(res1, spec, np.random.default_rng(17))
    b = select_screened(res2, spec, np.random.default_rng(17))
    assert np.array_equal(a, b)


def _select_by_stable_sort(result, spec, rng):
    """select_screened as it kept its nscreen before the partition: a full stable argsort."""
    absw = np.abs(np.asarray(result.omega, dtype=float))
    mask = np.ones(absw.size, dtype=bool)
    mask[np.asarray(result.excluded, dtype=int)] = False
    idx = np.flatnonzero(mask)
    if spec.nscreen >= idx.size:
        return idx
    w = absw[idx]
    if spec.selection_type == "fixed":
        order = np.argsort(-w, kind="stable")
        return np.sort(idx[order[: spec.nscreen]])
    pos = w > 0
    npos = int(pos.sum())
    if npos >= spec.nscreen:
        keys = rng.exponential(size=npos) / w[pos]
        order = np.argsort(keys, kind="stable")
        chosen = idx[pos][order[: spec.nscreen]]
    else:
        zeros = idx[~pos]
        fill = rng.choice(zeros, size=spec.nscreen - npos, replace=False)
        chosen = np.concatenate([idx[pos], fill])
    return np.sort(chosen)


# small integers tie at the cut; NaN scores rank last in "fixed" and never enter "prob" keys
_screen_scores = st.lists(st.sampled_from([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, np.nan]),
                          min_size=1, max_size=40)


@given(data=st.data(), omega=_screen_scores, selection_type=st.sampled_from(["prob", "fixed"]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_select_screened_keeps_the_set_of_a_stable_sort(data, omega, selection_type, seed):
    """The partition keeps what a full stable sort kept, draw for draw: ties at the cut,
    excluded columns, no screening (nscreen covers every column) and the zero-weight fill."""
    p = len(omega)
    excluded = data.draw(st.lists(st.integers(0, p - 1), unique=True, max_size=p))
    result = ScreeningResult(np.asarray(omega), np.asarray(excluded, dtype=int))
    spec = ScreenSpec(nscreen=data.draw(st.integers(1, p + 2)), selection_type=selection_type)
    got = select_screened(result, spec, np.random.default_rng(seed))
    want = _select_by_stable_sort(result, spec, np.random.default_rng(seed))
    assert np.array_equal(got, want)


@given(keys=st.lists(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf, np.nan]),
                     min_size=1, max_size=30), data=st.data())
@settings(max_examples=400, deadline=None)
def test_smallest_is_the_head_of_a_stable_argsort(keys, data):
    """Ties (-0.0 == 0.0 too) go to the smaller index; NaN ranks after inf, as np.sort puts it."""
    keys = np.asarray(keys)
    k = data.draw(st.integers(1, keys.size))
    assert np.array_equal(np.sort(_smallest(keys, k)), np.sort(np.argsort(keys, kind="stable")[:k]))


def test_split_for_screening():
    rng = np.random.default_rng(3)
    screen_rows, model_rows = split_for_screening(10, 0.4, rng)
    assert len(screen_rows) == 4 and len(model_rows) == 6
    assert np.intersect1d(screen_rows, model_rows).size == 0
    assert sorted(np.union1d(screen_rows, model_rows)) == list(range(10))
    s2, m2 = split_for_screening(10, None, rng)
    assert len(s2) == 10 and len(m2) == 10
    with pytest.raises(ConfigError):
        split_for_screening(5, 0.5, rng)  # 2/3 split leaves too few rows
