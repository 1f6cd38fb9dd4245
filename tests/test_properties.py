"""Invariants of the whole fit, as properties over one strategy of small fit configurations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from spar import RpSpec, ScreenSpec, fit_spar, fit_spar_cv, serialize_model
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
