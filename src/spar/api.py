"""User-facing fitting entry points.

fit_spar and fit_spar_cv share _fit_ensemble_only (validation, fit, nu
grid, config echo) and differ only in how they score the grid.
"""

from __future__ import annotations

import logging
from dataclasses import fields

import numpy as np

from .blas import one_blas_thread
from .ensemble import (
    ModelSpec,
    SparEnsemble,
    build_nu_grid,
    check_measure,
    fit_models,
    get_family,
    standardize,
)
from .errors import ConfigError, whole_at_least, whole_number
from .projection import RpSpec
from .rng import split_stream
from .screening import ScreenSpec, split_for_screening
from .selection import cross_validate, evaluate_validation_grid

logger = logging.getLogger(__name__)


def _spec_echo(spec) -> dict:
    """A spec's fields except controls, with a plugin callable reduced to its name."""
    echo = {f.name: getattr(spec, f.name) for f in fields(spec) if f.name != "controls"}
    plugin = echo.get("plugin")
    if plugin is not None and not isinstance(plugin, str):
        echo["plugin"] = getattr(plugin, "__name__", "plugin")
    return echo


def _fit_ensemble_only(x, y, family, screen, rp, model, nnu, nus, nummods,
                       measure, inds, rpms, seed, threads):
    """Validate, fit and build the nu grid: (ensemble, screen, model), specs resolved."""
    fam = get_family(family)
    check_measure(measure, fam)
    nummods = tuple(whole_number("nummods", m) for m in nummods)
    if not nummods or any(m < 1 for m in nummods):
        raise ConfigError("nummods must be a non-empty collection of positive ints")
    screen = (screen or ScreenSpec()).validated()
    rp = (rp or RpSpec()).validated()
    model = (model or ModelSpec()).validated()
    seed = whole_at_least("seed", seed, 0)
    threads = whole_at_least("threads", threads, 1)
    nnu = whole_at_least("nnu", nnu, 1)
    if nus is not None:
        build_nu_grid((), nnu, nus)  # refuses a bad explicit grid before the fit
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_std, y_std, stats = standardize(x, y, fam)
    n, p = x.shape
    screen = screen.resolved(n)
    screen_rows, model_rows = split_for_screening(
        n, screen.split_data_prop, split_stream(seed, 0)
    )
    rp = rp.resolved(len(model_rows), p)
    models = fit_models(x_std, y_std, fam, screen, rp, model, max(nummods), seed,
                        screen_rows, model_rows, inds=inds, rpms=rpms, threads=threads)
    nu_grid = build_nu_grid(models, nnu, nus)
    config = {
        "family": fam.name,
        "link": fam.link,
        "screen": _spec_echo(screen),
        "rp": _spec_echo(rp),
        "model": _spec_echo(model),
        "nnu": nnu,
        "nus": None if nus is None else [float(v) for v in np.atleast_1d(nus)],
        "nummods": list(nummods),
        "measure": measure,
        "seed": seed,
        # the worker count is an execution knob, not part of the model:
        # serialized output must not depend on it
    }
    ens = SparEnsemble(family=fam, stats=stats, models=models, nus=nu_grid, nummods=nummods,
                       measure=measure, master_seed=seed, config=config)
    return ens, screen, model


@one_blas_thread
def fit_spar(
    x,
    y,
    family="gaussian",
    screen: ScreenSpec | None = None,
    rp: RpSpec | None = None,
    model: ModelSpec | None = None,
    xval=None,
    yval=None,
    nnu: int = 20,
    nus=None,
    nummods=(20,),
    measure: str = "deviance",
    inds=None,
    rpms=None,
    seed: int = 0,
    threads: int = 1,
) -> SparEnsemble:
    """Fit the ensemble and select (nu, nummod) on a validation set.

    Without xval and yval the training data double as validation data,
    which biases the selection toward denser models; a warning is
    logged.  Giving only one of them raises ConfigError.  inds (index
    sets, used verbatim) and rpms (their projections; None entries are
    drawn) fix the first max(nummods) models.  A data-driven cw projection
    in rpms carries this fit's screening coefficients of its columns;
    one with data_driven=False keeps its values.  Returns a SparEnsemble
    with the selection grid and best = (nu_best, nummod_best).  threads
    spreads the models over worker threads without changing the result;
    BLAS runs on one thread during the call (see spar.blas).  The specs,
    seed (whole, >= 0), threads and nnu (whole, >= 1) and an explicit nus
    are checked before any fitting: ConfigError names a bad one.
    """
    if (xval is None) != (yval is None):
        raise ConfigError("give both xval and yval, or neither")
    ens, _, _ = _fit_ensemble_only(
        x, y, family, screen, rp, model, nnu, nus, nummods, measure, inds, rpms, seed, threads
    )
    if xval is None:
        logger.warning("no validation data supplied; selecting on the training data")
        xval, yval = x, y
    ens.grid = evaluate_validation_grid(ens, xval, yval)
    ens.grid.best_cell()  # NumericError here, not at first use, when no cell is finite
    return ens


@one_blas_thread
def fit_spar_cv(
    x,
    y,
    family="gaussian",
    screen: ScreenSpec | None = None,
    rp: RpSpec | None = None,
    model: ModelSpec | None = None,
    nfolds: int = 10,
    nnu: int = 20,
    nus=None,
    nummods=(20,),
    measure: str = "deviance",
    seed: int = 0,
    threads: int = 1,
) -> SparEnsemble:
    """Fit on the full data, then select (nu, nummod) by k-fold CV.

    The full-data fit freezes the index sets, projections and nu grid;
    folds only refit the marginal GLMs from the stored full-data fit (and
    refresh data-driven cw diagonals), so CV values move only within the
    IRLS tolerance (see cross_validate).  Returns a SparEnsemble with
    best and the one-standard-error pair one_se.  threads works as in
    fit_spar, for the folds too.  nfolds (whole, from 2 to the rows of x)
    is checked with the rest.
    """
    nfolds = whole_at_least("nfolds", nfolds, 2)
    if nfolds > len(x):
        raise ConfigError(f"nfolds={nfolds} exceeds the {len(x)} observations")
    ens, screen, model = _fit_ensemble_only(
        x, y, family, screen, rp, model, nnu, nus, nummods, measure, None, None, seed, threads
    )
    ens.config["nfolds"] = nfolds
    ens.grid = cross_validate(ens, x, y, screen, model, nfolds, threads)
    ens.grid.best_cell()  # NumericError here, as in fit_spar
    return ens
