"""Invariants of the whole fit, as properties over one strategy of small fit configurations:
thread-count invariance and the save/load round trip."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from spar import (RpSpec, ScreenSpec, fit_spar, fit_spar_cv, load_model, save_model,
                  serialize_model)
from spar.errors import SparError


@st.composite
def fit_configs(draw):
    """(x, y, keywords of fit_spar or, with nfolds, fit_spar_cv) at n <= 40 and p <= 30.

    Draws the family, the projection kind (haar_select with b2 <= 3), the screening method and
    selection type, split_data_prop (None or 0.5), nummods, nnu, and a validation set or 2-4
    CV folds.  The data come from the drawn seed: three signal columns plus noise.
    """
    family = draw(st.sampled_from(["gaussian", "binomial", "poisson"]))
    nfolds = draw(st.sampled_from([None, 2, 3, 4]))  # None: select on a validation set
    n, n_val, p = draw(st.integers(12, 40)), 10 * (nfolds is None), draw(st.integers(2, 30))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n + n_val, p))
    eta = x[:, :3] @ np.array([1.0, -0.8, 0.5])[: min(p, 3)]
    if family == "gaussian":
        y = eta + rng.standard_normal(n + n_val)
    elif family == "binomial":
        y = (rng.uniform(size=n + n_val) < expit(eta)).astype(float)
    else:
        y = rng.poisson(np.exp(0.5 * eta)).astype(float)
    kind = draw(st.sampled_from(["gaussian", "sparse", "cw", "haar_select"]))
    kwargs = dict(
        family=family,
        screen=ScreenSpec(method=draw(st.sampled_from(["cor", "marglik", "ridge"])),
                          selection_type=draw(st.sampled_from(["prob", "fixed"])),
                          split_data_prop=draw(st.sampled_from([None, 0.5]))),
        rp=RpSpec(kind=kind, b2=draw(st.integers(1, 3)) if kind == "haar_select" else 50),
        nnu=draw(st.integers(1, 4)),
        nummods=tuple(sorted(draw(st.sets(st.integers(1, 4), min_size=1, max_size=3)))),
        seed=seed,
    )
    if nfolds is None:
        kwargs.update(xval=x[n:], yval=y[n:])
    else:
        kwargs.update(nfolds=nfolds)
    return x[:n], y[:n], kwargs


def _model_or_error(x, y, kwargs, threads):
    """serialize_model of the fit at this thread count, or the type of the SparError it raised."""
    fit = fit_spar_cv if "nfolds" in kwargs else fit_spar
    try:
        return serialize_model(fit(x, y, threads=threads, **kwargs))
    except SparError as exc:
        return type(exc)


@given(fit_configs())
@settings(max_examples=60, deadline=None)
def test_thread_count_never_changes_the_model(config):
    """threads=1 and threads=3 write the same model.json bytes, or raise the same error type."""
    x, y, kwargs = config
    assert _model_or_error(x, y, kwargs, 1) == _model_or_error(x, y, kwargs, 3)


@given(fit_configs())
@settings(max_examples=30, deadline=None)
def test_model_serialization_is_stable(config):
    """save_model -> load_model -> serialize_model gives back the saved bytes, and the loaded
    ensemble's pairs, coef() and predict() (at every pair it can pick), and each model's
    back-mapped coefficients equal the fit's bit for bit."""
    x, y, kwargs = config
    fit = fit_spar_cv if "nfolds" in kwargs else fit_spar
    try:
        ens = fit(x, y, **kwargs)
    except SparError:  # the thread-count property holds these configurations' errors
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(ens, path)
        text = path.read_text()
        back = load_model(path)
    assert serialize_model(back) == text == serialize_model(ens)
    assert (back.best, back.one_se, back.cv) == (ens.best, ens.one_se, ens.cv)
    assert all(np.array_equal(a.beta_vals, b.beta_vals) for a, b in zip(ens.models, back.models))
    for opt_par in ("best", "1se") if ens.one_se is not None else ("best",):
        a, b = ens.coef(opt_par=opt_par), back.coef(opt_par=opt_par)
        assert (a.intercept, a.nu, a.nummod, a.active) == (b.intercept, b.nu, b.nummod, b.active)
        assert np.array_equal(a.beta, b.beta)
        for avg_type in ("link", "response"):
            assert np.array_equal(ens.predict(x, avg_type=avg_type, opt_par=opt_par),
                                  back.predict(x, avg_type=avg_type, opt_par=opt_par))
