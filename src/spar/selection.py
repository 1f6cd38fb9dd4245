"""Threshold and ensemble-size selection on a validation set or by CV.

Both paths score every (nu, nummod) pair with the chosen measure and
take the argmin, breaking ties toward the sparser model: larger nu
first, then smaller nummod.  ensemble._coef_blocks builds the grid in one
pass over the models, a nus x p block per nummod in nummods x nus order;
one matrix product scores a block, so a cell agrees with its own
intercept + x @ beta to a few ulps.  Cross-validation refits the
marginal models per fold through ensemble.fit_models, as the full-data
fit does, with its index sets and projections frozen and its fits as
warm starts; only data-driven cw diagonals are refreshed, from the fold's
screening coefficients.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain, product, starmap
from operator import itemgetter

import numpy as np

from .blas import one_blas_thread
from .ensemble import (
    ModelSpec,
    SparEnsemble,
    _coef_blocks,
    check_x_new,
    eval_measure,
    fit_models,
    standardize,
)
from .errors import ConfigError, CvError, DataError, NumericError
from .families import linkinv_eval, validate_response
from .rng import fold_stream, split_stream
from .screening import ScreenSpec, split_for_screening

logger = logging.getLogger(__name__)


@dataclass
class GridCell:
    nu: float
    nummod: int
    value: float  # validation measure, or CV mean across folds
    se: float  # 0 for validation grids
    active: int
    fold_values: list = field(default_factory=list)


@dataclass
class SelectionGrid:
    cells: list[GridCell]
    kind: str  # "validation" or "cv"; the measure is the ensemble's

    def best_cell(self) -> GridCell:
        finite = [c for c in self.cells if np.isfinite(c.value)]
        if not finite:
            raise NumericError("no finite measure values on the selection grid")
        return min(finite, key=lambda c: (c.value, -c.nu, c.nummod))

    def one_se_cell(self) -> GridCell:
        """Fewest active coefficients among cells within one se of the best."""
        best = self.best_cell()
        thr = best.value + best.se
        eligible = [c for c in self.cells if np.isfinite(c.value) and c.value <= thr]
        return min(eligible, key=lambda c: (c.active, -c.nu, c.nummod))


def _scored_cells(ens: SparEnsemble, models, stats, x, y) -> list[GridCell]:
    """The grid's cells, ens.measure on x, y (avg_type='link'): one product, one block at a time."""
    def cells(nummod, betas, intercepts, active):
        mus = (linkinv_eval(ens.family, b0 + eta) for b0, eta in zip(intercepts, betas @ x.T))
        return [GridCell(float(nu), nummod, eval_measure(ens.measure, ens.family, y, mu), 0.0,
                         int(a)) for nu, a, mu in zip(ens.nus, active, mus)]

    blocks = _coef_blocks(models, stats, ens.p, ens.nus, ens.nummods)
    return list(chain.from_iterable(starmap(cells, blocks)))  # a loop variable would keep a block


def _checked_xy(ens: SparEnsemble, x, y):
    """x through check_x_new, y through validate_response, and the same number of rows: once per
    grid, before any cell is scored.  eval_measure still checks each cell; bench/tracing.py
    counts the cells scored by its calls."""
    x, y = check_x_new(x, ens.p), validate_response(ens.family, y)
    if len(y) != x.shape[0]:
        raise DataError(f"x has {x.shape[0]} rows but y has {len(y)} entries")
    return x, y


def evaluate_validation_grid(ens: SparEnsemble, x_val, y_val) -> SelectionGrid:
    """Score every (nu, nummod) pair on held-out data (avg_type='link') with ens.measure."""
    x_val, y_val = _checked_xy(ens, x_val, y_val)
    return SelectionGrid(_scored_cells(ens, ens.models, ens.stats, x_val, y_val), "validation")


def make_folds(y, fam, nfolds: int, rng) -> list[np.ndarray]:
    """Permute into nfolds blocks, class-stratified for binomial.

    Fold sizes differ by at most one, and so do each class's counts per
    fold; no fold is empty, since nfolds <= n.  Each class is dealt on
    from the fold where the previous class's larger blocks ended.
    """
    n = len(y)
    if nfolds < 2:
        raise ConfigError("nfolds must be >= 2")
    if nfolds > n:
        raise ConfigError(f"nfolds={nfolds} exceeds the {n} observations")
    y = np.asarray(y)
    if fam.name == "binomial" and np.isin(y, (0.0, 1.0)).all():
        groups = [np.flatnonzero(y == 0), np.flatnonzero(y == 1)]
        groups = [g for g in groups if g.size]
    else:
        groups = [np.arange(n)]
    folds = [[] for _ in range(nfolds)]
    start = 0
    for g in groups:
        for i, part in enumerate(np.array_split(rng.permutation(g), nfolds)):
            folds[(start + i) % nfolds].append(part)
        start = (start + g.size) % nfolds
    return [np.sort(np.concatenate(parts)) for parts in folds]


def _fold_measures(ens: SparEnsemble, x, y, train, test, fold: int, screen_spec, model_spec,
                   threads: int) -> np.ndarray:
    """One usable fold's measure of every cell (see cross_validate).  The fold holds one
    standardized copy of its training rows and frees it before scoring the held-out rows."""
    x_std, y_std, stats = standardize(x, y, ens.family, rows=train)
    screen_rows, model_rows = split_for_screening(len(train), screen_spec.split_data_prop,
                                                  split_stream(ens.master_seed, fold + 1))
    omega = np.zeros(ens.p)  # the screening start: the full-data screening values cw columns carry
    for m in ens.models:
        if m.phi.kind == "cw" and m.phi.data_driven:
            omega[m.index_set] = m.phi.mat.data  # one stored value per column, as with_column_values
    models = fit_models(x_std, y_std, ens.family, screen_spec, None, model_spec, len(ens.models),
                        ens.master_seed, screen_rows, model_rows,
                        inds=[m.index_set for m in ens.models], rpms=[m.phi for m in ens.models],
                        threads=threads, screen_start=(None, omega),
                        starts=[None if m.failed else (m.gamma0, m.gamma) for m in ens.models])
    del x_std, y_std
    return np.asarray([c.value for c in _scored_cells(ens, models, stats, x[test], y[test])])


@one_blas_thread
def cross_validate(ens: SparEnsemble, x, y, screen_spec: ScreenSpec, model_spec: ModelSpec,
                   nfolds: int, threads: int = 1) -> SelectionGrid:
    """K-fold CV over the frozen (nu, nummod) grid of a fitted ensemble.

    The folds come from ens.master_seed.  Per fold (_fold_measures):
    standardize the training rows into one copy, split it for screening,
    refit the marginal GLMs with the full fit's index sets and projections
    through fit_models, free the copy and score the held-out part with
    ens.measure on the cells of the fold's coefficient blocks.  Binomial
    and poisson fits start from what ens stores (a loaded model gives the
    same grid): each model from its full-data fit, the screening from the
    data-driven cw column values; fold values lie within the IRLS tolerance
    of cold fits.  Cell means and standard errors (sd / sqrt(#folds))
    aggregate over the usable folds; active counts come from the full-data
    ensemble's coefficient blocks.
    """
    x, y = _checked_xy(ens, x, y)
    folds = make_folds(y, ens.family, nfolds, fold_stream(ens.master_seed))
    fold_measures = []  # one (n_cells,) array per usable fold
    n_all = np.arange(len(y))
    for i, test in enumerate(folds):
        train = np.setdiff1d(n_all, test)
        if ens.family.name == "binomial" and np.unique(y[train]).size < 2:
            logger.warning("fold %d: training response is constant; fold skipped", i)
        elif ens.measure == "1-auc" and np.unique(y[test]).size < 2:
            logger.warning("fold %d: held-out response is one-class; fold skipped", i)
        else:
            fold_measures.append(_fold_measures(ens, x, y, train, test, i, screen_spec,
                                                model_spec, threads))

    if len(fold_measures) < 2:
        raise CvError(
            f"only {len(fold_measures)} usable folds out of {len(folds)}; need at least 2"
        )
    stacked = np.vstack(fold_measures)  # (usable folds, cells)
    means = stacked.mean(axis=0)
    ses = stacked.std(axis=0, ddof=1) / np.sqrt(stacked.shape[0])

    counts = map(itemgetter(3), _coef_blocks(ens.models, ens.stats, ens.p, ens.nus, ens.nummods))
    cells = [GridCell(float(nu), int(nummod), float(mean), float(se), int(active), fold.tolist())
             for (nummod, nu), active, mean, se, fold in zip(
                 product(ens.nummods, ens.nus), chain.from_iterable(counts), means, ses, stacked.T)]
    return SelectionGrid(cells, "cv")  # counts hold one block at a time, as _scored_cells does
