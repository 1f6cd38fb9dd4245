"""Grid selection, tie-breaking, the one-SE rule, folds and cross-validation."""

import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spar import (
    ModelSpec,
    RpSpec,
    ScreenSpec,
    SyntheticSpec,
    fit_spar,
    fit_spar_cv,
    generate_synthetic,
)
from spar import ensemble, screening, selection
from spar.cli import _write_csv
from spar.data import model_from_dict, serialize_model
from spar.ensemble import averaged_coef
from spar.errors import ConfigError, CvError, DataError, DomainError, NumericError
from spar.families import BINOMIAL, GAUSSIAN, get_family
from spar.projection import gen_cw
from spar.rng import fold_stream
from spar.selection import (
    GridCell,
    SelectionGrid,
    cross_validate,
    evaluate_validation_grid,
    make_folds,
)


def _grid(cells):
    return SelectionGrid(list(cells), "cv")


def _pair(cell):
    return (cell.nu, cell.nummod)


def test_best_cell_argmin_and_tie_breaks():
    cells = [
        GridCell(0.0, 5, 2.0, 0.0, 40),
        GridCell(0.1, 5, 1.0, 0.0, 30),
        GridCell(0.2, 5, 1.5, 0.0, 20),
    ]
    assert _pair(_grid(cells).best_cell()) == (0.1, 5)
    # equal values: larger nu wins
    cells = [GridCell(0.0, 5, 1.0, 0.0, 40), GridCell(0.1, 5, 1.0, 0.0, 30)]
    assert _pair(_grid(cells).best_cell()) == (0.1, 5)
    # still equal: smaller nummod wins
    cells = [GridCell(0.1, 10, 1.0, 0.0, 30), GridCell(0.1, 5, 1.0, 0.0, 30)]
    assert _pair(_grid(cells).best_cell()) == (0.1, 5)
    with pytest.raises(NumericError):
        _grid([GridCell(0.0, 5, np.nan, 0.0, 1)]).best_cell()
    # non-finite cells are ignored, not fatal, when a finite one exists
    cells = [GridCell(0.0, 5, np.nan, 0.0, 1), GridCell(0.1, 5, 3.0, 0.0, 2)]
    assert _pair(_grid(cells).best_cell()) == (0.1, 5)


def test_one_se_rule_frozen_example():
    """Cells A(10+-2, 50 active), B(11, 30), C(13, 10): threshold 12 gives B."""
    cells = [
        GridCell(0.0, 10, 10.0, 2.0, 50),
        GridCell(0.1, 10, 11.0, 1.0, 30),
        GridCell(0.2, 10, 13.0, 1.0, 10),
    ]
    g = _grid(cells)
    assert _pair(g.best_cell()) == (0.0, 10)
    assert _pair(g.one_se_cell()) == (0.1, 10)


def test_one_se_zero_se_returns_sparsest_tied():
    cells = [
        GridCell(0.0, 10, 5.0, 0.0, 50),
        GridCell(0.3, 10, 5.0, 0.0, 7),
        GridCell(0.2, 10, 6.0, 0.0, 3),
    ]
    assert _pair(_grid(cells).one_se_cell()) == (0.3, 10)


def test_one_se_single_cell():
    g = _grid([GridCell(0.0, 1, 4.0, 1.0, 9)])
    assert _pair(g.one_se_cell()) == (0.0, 1)


def test_grid_csv_format(tmp_path):
    c = GridCell(0.5, 3, 1.25, 0.0, 7)
    _write_csv(tmp_path / "selection.csv", ("nu", "nummod", "mean", "se", "active"),
               [(c.nu, c.nummod, c.value, c.se, c.active)])
    expected = "nu,nummod,mean,se,active\n0.5,3,1.25,0.0,7\n"
    assert (tmp_path / "selection.csv").read_text() == expected


def test_validation_grid_cell_order_and_recompute():
    rng = np.random.default_rng(1)
    n, p = 60, 30
    x = rng.standard_normal((n, p))
    y = x[:, 0] - x[:, 2] + 0.5 * rng.standard_normal(n)
    xv = rng.standard_normal((25, p))
    yv = xv[:, 0] - xv[:, 2] + 0.5 * rng.standard_normal(25)
    ens = fit_spar(x, y, xval=xv, yval=yv, nnu=4, nummods=(2, 4), seed=3, measure="mse")
    cells = ens.grid.cells
    # nummods outer, nus inner
    assert [c.nummod for c in cells] == [2] * len(ens.nus) + [4] * len(ens.nus)
    assert [c.nu for c in cells[: len(ens.nus)]] == list(ens.nus)
    g2 = evaluate_validation_grid(ens, xv, yv)
    for a, b in zip(cells, g2.cells):
        assert a.value == pytest.approx(b.value, abs=1e-14)
        assert a.active == b.active


def test_make_folds_partition_and_sizes():
    y = np.arange(23.0)
    folds = make_folds(y, GAUSSIAN, 5, fold_stream(7))
    sizes = sorted(len(f) for f in folds)
    assert sizes == [4, 4, 5, 5, 5]
    assert sorted(np.concatenate(folds).tolist()) == list(range(23))
    again = make_folds(y, GAUSSIAN, 5, fold_stream(7))
    for a, b in zip(folds, again):
        assert np.array_equal(a, b)


def test_make_folds_stratified_binomial():
    y = np.r_[np.zeros(40), np.ones(10)]
    folds = make_folds(y, BINOMIAL, 5, fold_stream(1))
    for fold in folds:
        assert np.sum(y[fold] == 1) == 2  # 10 positives spread 2 per fold
        assert len(fold) == 10


@given(data=st.data(), nfolds=st.integers(2, 12), seed=st.integers(0, 2**16),
       family=st.sampled_from(["gaussian", "binomial", "poisson"]))
@settings(max_examples=200, deadline=None)
def test_make_folds_partition_is_even(data, nfolds, seed, family):
    """Folds partition range(n), none empty, sizes (and binomial class counts) within one."""
    n = data.draw(st.integers(nfolds, 60))
    y = np.asarray(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    folds = make_folds(y, get_family(family), nfolds, fold_stream(seed))
    assert len(folds) == nfolds
    assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(n))
    sizes = [f.size for f in folds]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    if family == "binomial":
        for cls in (0.0, 1.0):
            counts = [np.count_nonzero(y[f] == cls) for f in folds]
            assert max(counts) - min(counts) <= 1
    else:  # one group: the sorted array_split blocks of one permutation
        perm = fold_stream(seed).permutation(np.arange(n))
        for fold, block in zip(folds, np.array_split(perm, nfolds)):
            assert np.array_equal(fold, np.sort(block))


def test_make_folds_loo_and_bounds():
    y = np.arange(6.0)
    folds = make_folds(y, GAUSSIAN, 6, fold_stream(0))
    assert all(len(f) == 1 for f in folds)
    with pytest.raises(ConfigError):
        make_folds(y, GAUSSIAN, 1, fold_stream(0))
    with pytest.raises(ConfigError):
        make_folds(y, GAUSSIAN, 7, fold_stream(0))


def test_cv_mean_se_arithmetic():
    """Cell mean/se must equal the direct formula on the stored fold values."""
    rng = np.random.default_rng(5)
    n, p = 36, 15
    x = rng.standard_normal((n, p))
    y = x[:, 1] + rng.standard_normal(n)
    ens = fit_spar_cv(x, y, nfolds=3, nnu=3, nummods=(2,), seed=9)
    for cell in ens.grid.cells:
        vals = np.asarray(cell.fold_values)
        assert len(vals) == 3
        assert cell.value == pytest.approx(vals.mean(), rel=1e-12)
        assert cell.se == pytest.approx(vals.std(ddof=1) / np.sqrt(len(vals)), rel=1e-12)
    # frozen arithmetic example: fold values (1,2,3) give mean 2, se 1/sqrt(3)
    vals = np.array([1.0, 2.0, 3.0])
    assert vals.mean() == 2.0
    assert vals.std(ddof=1) / np.sqrt(3) == pytest.approx(0.5773502691896258, abs=1e-15)


def test_cv_skips_constant_training_folds_and_errors_when_starved():
    x = np.random.default_rng(6).standard_normal((8, 3))
    y = np.r_[1.0, np.zeros(7)]
    with pytest.raises(CvError):
        fit_spar_cv(x, y, family="binomial", nfolds=2, nummods=(2,), seed=0)


def test_cv_one_se_never_less_sparse_than_best():
    rng = np.random.default_rng(8)
    n, p = 50, 60
    x = rng.standard_normal((n, p))
    y = 2.0 * x[:, 0] + rng.standard_normal(n)
    ens = fit_spar_cv(x, y, nfolds=5, nnu=6, nummods=(3, 6), seed=2)
    best = ens.grid.best_cell()
    one_se = ens.grid.one_se_cell()
    assert one_se.active <= best.active
    assert ens.best == (best.nu, best.nummod)
    assert ens.one_se == (one_se.nu, one_se.nummod)


def test_cv_auc_measure_skips_one_class_test_folds():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((11, 4))
    y = np.r_[1.0, np.zeros(10)]
    # the fold holding the lone positive has a constant training response and
    # every other held-out fold is one-class, so nothing usable remains
    with pytest.raises(CvError):
        fit_spar_cv(x, y, family="binomial", measure="1-auc", nfolds=10, nummods=(2,), seed=0)


@pytest.mark.parametrize("positives, measure, reason, n_skipped", [
    (1, "deviance", "training response is constant", 1),
    (3, "1-auc", "held-out response is one-class", 2),
])
def test_cv_skips_a_degenerate_fold_with_a_warning(monkeypatch, caplog, positives, measure, reason,
                                                   n_skipped):
    """Each skipped fold is logged by its number, the other folds are the ones scored, and
    every cell's fold values come from exactly those."""
    rng = np.random.default_rng(15)
    x = rng.standard_normal((30, 6))
    y = np.r_[np.ones(positives), np.zeros(30 - positives)]
    nfolds, seed = 5, 4
    folds = make_folds(y, BINOMIAL, nfolds, fold_stream(seed))
    if positives == 1:  # the fold holding the lone positive trains on zeros alone
        skipped = [i for i, f in enumerate(folds) if 0 in f]
    else:  # three positives in five stratified folds leave two folds without one
        skipped = [i for i, f in enumerate(folds) if not y[f].any()]
    used, real = [], selection._fold_measures

    def spy(ens, x, y, train, test, fold, *rest):
        used.append(fold)
        return real(ens, x, y, train, test, fold, *rest)

    monkeypatch.setattr(selection, "_fold_measures", spy)
    with caplog.at_level(logging.WARNING, logger="spar.selection"):
        ens = fit_spar_cv(x, y, family="binomial", measure=measure, nfolds=nfolds, nnu=3,
                          nummods=(2,), seed=seed)
    assert len(skipped) == nfolds - len(used) == n_skipped
    assert [r.getMessage() for r in caplog.records if r.name == "spar.selection"] == [
        f"fold {i}: {reason}; fold skipped" for i in skipped]
    assert used == [i for i in range(nfolds) if i not in skipped]
    assert all(len(c.fold_values) == len(used) for c in ens.grid.cells)


def test_fits_leave_caller_arrays_unmodified():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((40, 15))
    y = x[:, 0] + 0.3 * rng.standard_normal(40)
    xv = rng.standard_normal((20, 15))
    yv = xv[:, 0] + 0.3 * rng.standard_normal(20)
    before = [a.copy() for a in (x, y, xv, yv)]
    fit_spar(x, y, xval=xv, yval=yv, nnu=3, nummods=(2,), seed=1)
    fit_spar_cv(x, y, nfolds=3, nnu=3, nummods=(2,), seed=1)
    for a, b in zip((x, y, xv, yv), before):
        assert np.array_equal(a, b)


def _validation_data(family="gaussian"):
    rng = np.random.default_rng(16)
    x, xv = rng.standard_normal((40, 15)), rng.standard_normal((20, 15))
    y, yv = x[:, 0] + 0.3 * rng.standard_normal(40), xv[:, 0] + 0.3 * rng.standard_normal(20)
    if family == "binomial":
        y, yv = (y > 0).astype(float), (yv > 0).astype(float)
    return x, y, xv, yv


def test_fit_spar_refuses_a_non_finite_yval():
    """A NaN in yval is a DomainError before any cell is scored, not a grid without a finite cell."""
    x, y, xv, yv = _validation_data()
    yv[3] = np.nan
    with pytest.raises(DomainError, match="non-finite response at index 3"):
        fit_spar(x, y, xval=xv, yval=yv, nnu=3, nummods=(2,), seed=1, measure="mse")


@pytest.mark.parametrize("measure", ["class", "1-auc", "mse"])
def test_fit_spar_refuses_a_binomial_yval_outside_its_domain(measure):
    x, y, xv, yv = _validation_data("binomial")
    yv[2] = 2.0
    with pytest.raises(DomainError, match=r"binomial response outside \[0, 1\] at index 2"):
        fit_spar(x, y, family="binomial", xval=xv, yval=yv, nnu=3, nummods=(2,), seed=1,
                 measure=measure)


def test_validation_grid_refuses_bad_held_out_x():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((40, 15))
    y = x[:, 0] + 0.3 * rng.standard_normal(40)
    xv = rng.standard_normal((20, 15))
    yv = xv[:, 0] + 0.3 * rng.standard_normal(20)
    ens = fit_spar(x, y, xval=xv, yval=yv, nnu=3, nummods=(2,), seed=1)
    with pytest.raises(DataError, match="columns"):
        evaluate_validation_grid(ens, xv[:, 1:], yv)
    with pytest.raises(DataError, match="x has 20 rows but y has 19 entries"):
        evaluate_validation_grid(ens, xv, yv[1:])
    xv[4, 2] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        evaluate_validation_grid(ens, xv, yv)


def test_cross_validate_refuses_y_of_another_length():
    """A shorter y would silently drop x's trailing rows; a longer one indexed past x."""
    rng = np.random.default_rng(10)
    x = rng.standard_normal((60, 15))
    y = x[:, 0] + rng.standard_normal(60)
    ens = fit_spar_cv(x, y, nfolds=3, nnu=3, nummods=(2,), seed=1)
    for y_bad in (y[:50], np.r_[y, y[:10]]):
        with pytest.raises(DataError, match=f"x has 60 rows but y has {len(y_bad)}"):
            cross_validate(ens, x, y_bad, ScreenSpec().resolved(60), ModelSpec(), 3)


def test_cv_frees_each_fold_before_the_next(traced_peak):
    """Binomial 10-fold CV peaks below 2.5 x x.nbytes: one fold's copies at a time, plus its screening.

    Holding fold k-1's standardized copy while fold k standardizes put the
    peak above 3 x x.nbytes at this size.
    """
    ds, _ = generate_synthetic(
        SyntheticSpec(n=100, p=1000, n_active=10, family="binomial", rho=0.5), 1)
    peak = traced_peak(
        lambda: fit_spar_cv(ds.x, ds.y, family="binomial", nfolds=10, nummods=(5, 10)),
        lambda: fit_spar_cv(ds.x[:, :50], ds.y, family="binomial", nfolds=3, nummods=(2,)))
    assert peak < 2.5 * ds.x.nbytes, f"peak {peak / ds.x.nbytes:.2f} x x.nbytes"


def test_wide_fit_holds_one_standardized_copy_of_x(traced_peak):
    """A p >> n cw fit peaks below 1.4 x x.nbytes: the standardized copy and no n x p screening copy.

    Measured 1.31 (n=40, p=4000, five data seeds).  A dual ridge screening that
    centred and weighted a copy of x read 2.13.
    """
    ds, _ = generate_synthetic(SyntheticSpec(n=40, p=4000, n_test=20), 0)
    peak = traced_peak(lambda: fit_spar(ds.x, ds.y, xval=ds.x_test, yval=ds.y_test, nummods=(20,)))
    assert peak < 1.4 * ds.x.nbytes, f"peak {peak / ds.x.nbytes:.2f} x x.nbytes"


def test_cv_fold_holds_one_standardized_copy_of_its_rows(traced_peak):
    """Binomial 5-fold CV at p >> n peaks below 1.8 x x.nbytes: per fold, one standardized copy of
    the training rows and no full-size temporary beside it.

    Measured 1.66 (n=60, p=1000, five data seeds).  A fold that standardized
    a separate x[train] copy, with np.std's full-size temporary, read 2.14.
    """
    ds, _ = generate_synthetic(
        SyntheticSpec(n=60, p=1000, n_active=10, family="binomial", rho=0.5), 0)
    peak = traced_peak(
        lambda: fit_spar_cv(ds.x, ds.y, family="binomial", nfolds=5, nummods=(10,)),
        lambda: fit_spar_cv(ds.x[:, :50], ds.y, family="binomial", nfolds=3, nummods=(2,)))
    assert peak < 1.8 * ds.x.nbytes, f"peak {peak / ds.x.nbytes:.2f} x x.nbytes"


def _plain_mu(family, eta):
    if family == "gaussian":
        return eta
    if family == "binomial":
        return np.clip(1.0 / (1.0 + np.exp(-eta)), 1e-10, 1.0 - 1e-10)
    return np.maximum(np.exp(np.minimum(eta, 700.0)), 1e-10)


def _plain_measure(measure, family, y, mu):
    """The selection measures written out in numpy, 0 * log 0 = 0 in the deviances."""
    if measure == "mse":
        return np.mean((y - mu) ** 2)
    if measure == "mae":
        return np.mean(np.abs(y - mu))
    if measure == "class":
        return np.mean((mu > 0.5) != (y > 0.5))
    if measure == "1-auc":
        pos, neg = mu[y == 1][:, None], mu[y == 0][None, :]
        return 1.0 - np.mean((pos > neg) + 0.5 * (pos == neg))
    if family == "gaussian":
        return np.sum((y - mu) ** 2)
    ylogy = y * np.log(np.where(y > 0, y, 1.0) / mu)
    if family == "binomial":
        return 2.0 * np.sum(ylogy + (1 - y) * np.log(np.where(y < 1, 1 - y, 1.0) / (1 - mu)))
    return 2.0 * np.sum(ylogy - (y - mu))


_ORACLE_RTOL = 1e-12
_POOLS = {"gaussian": (-2.0, -1.0, 1.0, 2.0), "binomial": (-1.5, 1.5), "poisson": (-0.4, 0.4)}
_FAMILY_MEASURES = [(fam, m) for fam in ("gaussian", "poisson") for m in ("deviance", "mse", "mae")]
_FAMILY_MEASURES += [("binomial", m) for m in ("deviance", "mse", "mae", "class", "1-auc")]


def _same_pair_unless_tied(got, want, values):
    """got and want pick the same cell, or their recomputed values tie within _ORACLE_RTOL."""
    if (got.nu, got.nummod) != (want.nu, want.nummod):
        a, b = values[(got.nu, got.nummod)], values[(want.nu, want.nummod)]
        assert np.isclose(a, b, rtol=_ORACLE_RTOL, atol=0), (got, want)


@pytest.mark.parametrize("mode", ["validation", "cv"])
@pytest.mark.parametrize("family,measure", _FAMILY_MEASURES)
def test_grid_cells_equal_a_per_cell_recompute(family, measure, mode, monkeypatch):
    """Every scored cell equals intercept + x @ beta of its averaged_coef, pushed through the
    inverse link and the measure in plain numpy, to 1e-12 relative; so do the selected pairs.

    The grid scores one matrix product per nummod block, so it matches the per-cell recompute
    to a few ulps, not bit for bit.  Every scoring call (the validation set, each CV fold) is
    recorded with the models, stats and rows it scored.
    """
    calls = []
    scored_cells = selection._scored_cells

    def recording(ens, models, stats, x, y):
        cells = scored_cells(ens, models, stats, x, y)
        calls.append((models, stats, x, y, cells))
        return cells

    monkeypatch.setattr(selection, "_scored_cells", recording)
    ds, _ = generate_synthetic(SyntheticSpec(n=40, p=60, n_active=6, sigma2=1.0, family=family,
                                             coef_pool=_POOLS[family], n_test=20), 4)
    common = dict(family=family, measure=measure, nnu=5, nummods=(2, 4), seed=3)
    if mode == "validation":
        ens = fit_spar(ds.x, ds.y, xval=ds.x_test, yval=ds.y_test, **common)
    else:
        ens = fit_spar_cv(ds.x, ds.y, nfolds=4, **common)

    recomputed = []  # per scoring call, one value per cell
    for models, stats, x, y, cells in calls:
        row = []
        for cell in cells:
            c = averaged_coef(models, stats, ens.p, cell.nu, cell.nummod)
            want = _plain_measure(measure, family, y, _plain_mu(family, c.intercept + x @ c.beta))
            assert np.isclose(cell.value, want, rtol=_ORACLE_RTOL, atol=0), (cell, want)
            row.append(want)
        recomputed.append(row)
    assert len(calls) == (1 if mode == "validation" else len(ens.grid.cells[0].fold_values))

    stacked = np.asarray(recomputed)
    if mode == "cv":
        for pos, cell in enumerate(ens.grid.cells):
            assert cell.fold_values == [cells[pos].value for *_, cells in calls]
        ses = stacked.std(axis=0, ddof=1) / np.sqrt(len(calls))
    else:
        assert ens.grid.cells == calls[0][4]
        ses = np.zeros(stacked.shape[1])
    oracle = SelectionGrid([GridCell(c.nu, c.nummod, float(v), float(se), c.active)
                            for c, v, se in zip(ens.grid.cells, stacked.mean(axis=0), ses)], "cv")
    values = {(c.nu, c.nummod): c.value for c in oracle.cells}
    _same_pair_unless_tied(ens.grid.best_cell(), oracle.best_cell(), values)
    if mode == "cv":
        _same_pair_unless_tied(ens.grid.one_se_cell(), oracle.one_se_cell(), values)


def test_validation_grid_holds_one_block_at_a_time(traced_peak):
    """At wide p the validation grid peaks near two nus x p blocks: the running sum and the block
    being scored (about 2.04 measured).  Five nummods held at once would be six."""
    ds, _ = generate_synthetic(SyntheticSpec(n=40, p=4000, n_active=10, n_test=20), 1)
    ens = fit_spar(ds.x, ds.y, xval=ds.x_test, yval=ds.y_test, nnu=20, nummods=(2, 4, 6, 8, 10),
                   seed=1)
    block = ens.nus.size * ens.p * 8
    peak = traced_peak(lambda: evaluate_validation_grid(ens, ds.x_test, ds.y_test))
    assert ens.nus.size == 20
    assert peak < 2.5 * block, f"peak {peak / block:.2f} nus x p blocks"


def test_cross_validation_holds_one_block_at_a_time(traced_peak):
    """At wide p with many nus the CV grid's tail dominates its peak: the active counts are taken
    one block at a time, as the fold scores are (about 2.5 nus x p blocks measured).  Counts read
    off coef_path's cells would keep a third block alive while the next is built (about 3.1)."""
    ds, _ = generate_synthetic(SyntheticSpec(n=40, p=4000, n_active=10), 1)
    ens = fit_spar_cv(ds.x, ds.y, nfolds=3, nnu=100, nummods=tuple(range(2, 11)), seed=1)
    args = (ens, ds.x, ds.y, ScreenSpec(), ModelSpec(), 3)

    def warm_up():  # and the fit's own grid
        assert cross_validate(*args).cells == ens.grid.cells

    block = ens.nus.size * ens.p * 8
    peak = traced_peak(lambda: cross_validate(*args), warm_up)
    assert ens.nus.size == 100
    assert peak < 2.75 * block, f"peak {peak / block:.2f} nus x p blocks"


def test_fit_spar_needs_both_validation_arrays_or_neither(caplog):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((40, 15))
    y = x[:, 0] + 0.3 * rng.standard_normal(40)
    with pytest.raises(ConfigError, match="both xval and yval"):
        fit_spar(x, y, xval=x, nnu=3, nummods=(2,))
    with pytest.raises(ConfigError, match="both xval and yval"):
        fit_spar(x, y, yval=y, nnu=3, nummods=(2,))
    with caplog.at_level(logging.WARNING, logger="spar.api"):
        ens = fit_spar(x, y, nnu=3, nummods=(2,))
    assert "no validation data supplied; selecting on the training data" in caplog.text
    assert ens.grid.kind == "validation"


def test_fit_spar_echoes_a_plugin_callable_by_its_name():
    def colsum(x, y, controls):
        return np.abs(x).sum(axis=0)

    def dense_ones(m, index_set, snapshot, controls):
        return np.ones((m, len(index_set)))

    rng = np.random.default_rng(12)
    x = rng.standard_normal((40, 15))
    y = x[:, 0] + 0.3 * rng.standard_normal(40)
    ens = fit_spar(x, y, screen=ScreenSpec(method="plugin", plugin=colsum),
                   rp=RpSpec(kind="plugin", plugin=dense_ones), xval=x, yval=y,
                   nnu=3, nummods=(2,))
    assert ens.config["screen"]["method"] == "plugin"
    assert ens.config["screen"]["plugin"] == "colsum"
    assert (ens.config["rp"]["kind"], ens.config["rp"]["plugin"]) == ("plugin", "dense_ones")


@pytest.mark.parametrize("family, kind", [("binomial", "cw"), ("poisson", "cw"),
                                          ("binomial", "haar_select")])
def test_cross_validation_warm_starts_from_the_stored_model_only(family, kind):
    """Each fold starts from the full-data models and screening that model.json stores, so a
    reloaded ensemble cross-validates to the fitted grid bit for bit."""
    ds, _ = generate_synthetic(SyntheticSpec(n=60, p=150, n_active=5, family=family), 4)
    ens = fit_spar_cv(ds.x, ds.y, family, rp=RpSpec(kind=kind, b2=4), nfolds=4, nummods=(8,),
                      seed=3)
    loaded = model_from_dict(json.loads(serialize_model(ens)))
    grid = cross_validate(loaded, ds.x, ds.y, ScreenSpec().resolved(60), ModelSpec(), 4)
    assert grid.cells == ens.grid.cells


def test_fold_warm_starts_save_iterations_and_keep_the_fits(monkeypatch):
    """On one binomial cw fold the starts cut the IRLS iterations by at least 30 % and every fit
    (the screening and each model) reaches the cold deviance within 1e-8."""
    ds, _ = generate_synthetic(SyntheticSpec(n=100, p=400, n_active=10, family="binomial"), 2)
    ens = fit_spar_cv(ds.x, ds.y, "binomial", nfolds=5, nummods=(20,), seed=1)
    real_glm, calls, fits = ensemble.fit_penalized_glm, [], []

    def capture(*args, **kwargs):
        calls.append((args, kwargs))
        return ensemble.fit_models(*args, **kwargs)

    def glm(*args, **kwargs):
        fits.append(real_glm(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(selection, "fit_models", capture)
    test = make_folds(ds.y, BINOMIAL, 5, fold_stream(1))[0]
    train = np.setdiff1d(np.arange(100), test)
    selection._fold_measures(ens, ds.x, ds.y, train, test, 0, ScreenSpec().resolved(100),
                             ModelSpec(), 1)
    (args, kwargs), = calls  # the fold's one fit_models call, starts included
    monkeypatch.setattr(ensemble, "fit_penalized_glm", glm)
    monkeypatch.setattr(screening, "fit_penalized_glm", glm)
    ensemble.fit_models(*args, **kwargs)
    warm, fits[:] = fits[:], []
    ensemble.fit_models(*args, **{**kwargs, "starts": None, "screen_start": None})
    assert len(warm) == len(fits) == 21
    assert sum(f.iterations for f in warm) <= 0.7 * sum(f.iterations for f in fits)
    for w, c in zip(warm, fits):
        assert w.deviance == pytest.approx(c.deviance, rel=1e-8)


def test_a_plugin_cw_matrix_keeps_its_values_in_every_fold(monkeypatch):
    """A projection plugin's matrix is never data-driven, even when it says so: the full fit,
    a fit on given index sets and every CV fold keep the plugin's values, where fit_models
    would give a data-driven cw matrix the fit's or the fold's screening coefficients."""
    def marked_cw(m, index_set, snapshot, controls):
        phi = gen_cw(m, len(index_set), True, snapshot["rng"])
        return phi.with_column_values(np.linspace(0.5, 2.0, len(index_set)))

    folds, real = [], selection.fit_models
    monkeypatch.setattr(selection, "fit_models",
                        lambda *args, **kwargs: folds.append(real(*args, **kwargs)) or folds[-1])
    rng = np.random.default_rng(15)
    x = rng.standard_normal((30, 40))
    y = x[:, 0] + rng.standard_normal(30)
    rp = RpSpec(kind="plugin", plugin=marked_cw)
    ens = fit_spar_cv(x, y, rp=rp, nfolds=3, nnu=3, nummods=(4,), seed=2)
    given = fit_spar(x, y, rp=rp, inds=[m.index_set for m in ens.models], nnu=3, nummods=(4,))
    assert len(folds) == 3
    for models in [*folds, given.models, ens.models]:
        for got, full in zip(models, ens.models, strict=True):
            assert np.array_equal(got.phi.mat.data, np.linspace(0.5, 2.0, full.index_set.size))
    assert not any(m.phi.data_driven for m in ens.models)
