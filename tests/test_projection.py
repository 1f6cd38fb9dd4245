"""Projection generators, the JL bound, and the triplet representation."""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import spar.projection as projection_mod
from conftest import dense
from spar.errors import ConfigError, DataError, SingularError
from spar.families import SOLVER_ERRORS, fit_penalized_glm, get_family, linkinv_eval
from spar.projection import (
    ProjectionMatrix,
    RpSpec,
    draw_goal_dims,
    gen_cw,
    gen_gaussian,
    gen_haar,
    gen_haar_select,
    gen_sparse,
    jl_min_dim,
    make_projection,
    register_rp_plugin,
)


def test_jl_min_dim_frozen_values():
    assert jl_min_dim(100, 0.5, 1.0) == 332
    assert jl_min_dim(50, 0.5, 1.0) == 282
    # ln(e) = 1 makes the bound exactly 6 / (1/12) = 72
    assert jl_min_dim(int(np.ceil(np.e)), 0.5, 1.0) >= 72
    with pytest.raises(ConfigError):
        jl_min_dim(10, 0.0, 1.0)
    with pytest.raises(ConfigError):
        jl_min_dim(10, 1.5, 1.0)


def test_draw_goal_dims_range_and_determinism():
    rng = np.random.default_rng(0)
    dims = draw_goal_dims(500, 3, 9, rng)
    assert dims.min() >= 3 and dims.max() <= 9
    assert set(np.unique(dims)) == set(range(3, 10))
    a = draw_goal_dims(10, 2, 5, np.random.default_rng(4))
    b = draw_goal_dims(10, 2, 5, np.random.default_rng(4))
    assert np.array_equal(a, b)
    with pytest.raises(ConfigError):
        draw_goal_dims(1, 5, 4, rng)
    with pytest.raises(ConfigError):
        draw_goal_dims(1, 0, 4, rng)


def test_gen_gaussian_moments():
    phi = gen_gaussian(200, 300, np.random.default_rng(1))
    vals = dense(phi).ravel()
    n = vals.size
    assert abs(vals.mean()) < 3.0 / np.sqrt(n)
    assert abs(vals.var() - 1.0) < 3.0 * np.sqrt(2.0 / n)


def test_gen_sparse_value_law():
    phi = gen_sparse(100, 200, 1.0, np.random.default_rng(2))
    vals = dense(phi).ravel()
    assert set(np.unique(vals)) == {-1.0, 1.0}

    psi = 0.5
    phi = gen_sparse(100, 200, psi, np.random.default_rng(3))
    vals = dense(phi).ravel()
    scale = 1.0 / np.sqrt(psi)
    assert set(np.unique(vals)) <= {-scale, 0.0, scale}
    frac_nonzero = np.mean(vals != 0.0)
    assert abs(frac_nonzero - psi) < 3.0 * np.sqrt(psi * (1 - psi) / vals.size)
    with pytest.raises(ConfigError):
        gen_sparse(5, 5, 0.0, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        gen_sparse(5, 5, 1.1, np.random.default_rng(0))


def test_gen_cw_structure():
    m, q = 7, 40
    phi = gen_cw(m, q, False, np.random.default_rng(4))
    mat = dense(phi)
    # exactly one nonzero per column, valued +-1
    assert np.all((mat != 0).sum(axis=0) == 1)
    assert set(np.unique(mat[mat != 0])) == {-1.0, 1.0}
    assert not phi.data_driven

    # data_driven only marks the matrix: the same draws, and values set afterwards
    marked = gen_cw(m, q, True, np.random.default_rng(4))
    assert marked.data_driven and np.array_equal(dense(marked), mat)
    diag = np.arange(1.0, q + 1.0)
    mat = dense(marked.with_column_values(diag))
    assert np.all((mat != 0).sum(axis=0) <= 1)
    assert np.allclose(np.abs(mat).sum(axis=0), np.abs(diag))


def test_gen_cw_single_row_collapses_to_diag():
    diag = np.array([2.0, -3.0, 0.5])
    phi = gen_cw(1, 3, True, np.random.default_rng(7)).with_column_values(diag)
    assert np.allclose(dense(phi), diag.reshape(1, 3))


def test_gen_haar_orthonormal_rows():
    mat = dense(gen_haar(6, 15, np.random.default_rng(8)))
    assert np.max(np.abs(mat @ mat.T - np.eye(6))) < 1e-10
    with pytest.raises(ConfigError):
        gen_haar(16, 15, np.random.default_rng(8))


def test_gen_haar_sign_convention_deterministic():
    a = dense(gen_haar(4, 9, np.random.default_rng(9)))
    b = dense(gen_haar(4, 9, np.random.default_rng(9)))
    assert np.array_equal(a, b)


def test_haar_select_b2_one_matches_gen_haar():
    rng_data = np.random.default_rng(10)
    x = rng_data.standard_normal((24, 9))
    y = rng_data.standard_normal(24)
    a = gen_haar_select(4, 9, x, y, "gaussian", 1, 0.25, 0.0, np.random.default_rng(77))
    b = gen_haar(4, 9, np.random.default_rng(77))
    assert np.array_equal(dense(a), dense(b))


def _haar(g):
    """The m x q Haar matrix of a q x m draw g: Q of its QR, R's diagonal made >= 0, transposed."""
    qmat, r = np.linalg.qr(g)
    return (qmat * np.where(np.diag(r) < 0, -1.0, 1.0)).T


def _haar_select_reference(m, q, x, y, family, b2, frac, eps, rng, fit=fit_penalized_glm):
    """Best of b2 the direct way: (every candidate's m x q matrix, the winner's index, V, the
    candidates' draws), V None where the candidates are gen_haar's q x m draws scored on Q.

    The split comes from rng's spawned child.  An unpenalized gaussian fit with m < q and m + 1
    < training rows draws each candidate's H = V^T G from rng, V from np.linalg.qr of the
    [train; test] rows transposed, then one q x m C; every candidate is the full
    G = V H + (I - V V^T) C, scored on x @ G."""
    if b2 == 1:
        return [_haar(rng.standard_normal((q, m)))], 0, None, None
    n = len(y)
    test = np.sort(rng.spawn(1)[0].choice(n, size=int(round(frac * n)), replace=False))
    train = np.setdiff1d(np.arange(n), test)
    v = None
    if family == "gaussian" and eps == 0 and m < q and m + 1 < len(train):
        v = np.linalg.qr(x[np.concatenate([train, test])].T)[0]
        draws = [rng.standard_normal((v.shape[1], m)) for _ in range(b2)]
        c = rng.standard_normal((q, m))
        bases = [v @ h + (np.eye(q) - v @ v.T) @ c for h in draws]
        mats = [_haar(g) for g in bases]
    else:
        draws = [rng.standard_normal((q, m)) for _ in range(b2)]
        mats = [_haar(g) for g in draws]
        bases = [mat.T for mat in mats]
    best_err, best = np.inf, 0
    for i, basis in enumerate(bases):
        try:
            res = fit(x[train] @ basis, y[train], family, eps)
        except SOLVER_ERRORS:
            continue
        mu = linkinv_eval(get_family(family), res.gamma0 + (x[test] @ basis) @ res.gamma)
        if family == "binomial":
            err = float(np.mean((mu > 0.5) != (y[test] > 0.5)))
        else:
            err = float(np.mean((y[test] - mu) ** 2))
        if err < best_err:
            best_err, best = err, i
    return mats, best, v, draws


def _haar_problem(seed, n, q, family):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, q))
    eta = x @ rng.standard_normal(q) / np.sqrt(q) + 0.5 * rng.standard_normal(n)
    return x, (eta > 0).astype(float) if family == "binomial" else eta


def _assert_matches_reference(m, q, x, y, family, b2, eps, seed, fit=fit_penalized_glm):
    """gen_haar_select (under projection_mod's fit_penalized_glm) picks the reference's winner
    and leaves rng where the reference leaves it; scored on Q, bit for bit.  Drawn in X's row
    span, the winner's G = V H + (I - V V^T) C agrees to rounding, and V^T G is its H.
    Returns the winner's index."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(projection_mod, "_haar_from", wraps=projection_mod._haar_from) as spy:
        chosen = dense(gen_haar_select(m, q, x, y, family, b2, 0.25, eps, rng))
    mats, best, v, draws = _haar_select_reference(m, q, x, y, family, b2, 0.25, eps, ref_rng, fit)
    if v is None:
        assert np.array_equal(chosen, mats[best])
    else:
        np.testing.assert_allclose(chosen, mats[best], rtol=0, atol=1e-8)
        np.testing.assert_allclose(v.T @ spy.call_args.args[0], draws[best], rtol=0, atol=1e-9)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return best


def test_haar_select_picks_holdout_argmin():
    """Replicate the candidate draws and the spawned split; expect the same winner."""
    rng_data = np.random.default_rng(11)
    n, q, m, b2 = 32, 8, 3, 5
    x = rng_data.standard_normal((n, q))
    y = x @ rng_data.standard_normal(q) + 0.2 * rng_data.standard_normal(n)
    _assert_matches_reference(m, q, x, y, "gaussian", b2, 0.1, 55)


def _only_nth_fits(nth):
    """A fit_penalized_glm that raises SingularError on every call but the nth, and its calls."""
    calls = []

    def fit(z, y_tr, fam, eps):
        calls.append(1)
        if len(calls) != nth:
            raise SingularError("forced singular candidate")
        return fit_penalized_glm(z, y_tr, fam, eps)

    return fit, calls


def test_haar_select_failed_candidate_drops_out(monkeypatch):
    """A solver error drops the candidate from the race; other errors propagate."""
    rng_data = np.random.default_rng(21)
    x = rng_data.standard_normal((24, 9))
    y = rng_data.standard_normal(24)
    only_third, calls = _only_nth_fits(3)
    monkeypatch.setattr(projection_mod, "fit_penalized_glm", only_third)
    best = _assert_matches_reference(4, 9, x, y, "gaussian", 5, 0.0, 78, _only_nth_fits(3)[0])
    assert len(calls) == 5
    assert best == 2

    for exc in (TypeError("bad argument"), ConfigError("bad setting")):
        def broken(*args, exc=exc):
            raise exc

        monkeypatch.setattr(projection_mod, "fit_penalized_glm", broken)
        with pytest.raises(type(exc)):
            gen_haar_select(4, 9, x, y, "gaussian", 5, 0.25, 0.0, np.random.default_rng(78))


def test_haar_select_holdout_split_is_keyed_by_purpose(monkeypatch):
    """The training rows do not depend on b2, and a bad holdout_frac raises before any draw."""
    x, y = _haar_problem(37, 30, 9, "gaussian")
    assert len(np.unique(y)) == len(y)  # so y_tr names the training rows
    calls = []

    def recording_fit(z, y_tr, fam, eps):
        calls.append(np.flatnonzero(np.isin(y, y_tr)))
        return fit_penalized_glm(z, y_tr, fam, eps)

    monkeypatch.setattr(projection_mod, "fit_penalized_glm", recording_fit)
    train = {}
    for b2 in (2, 50):
        calls.clear()
        gen_haar_select(4, 9, x, y, "gaussian", b2, 0.25, 0.0, np.random.default_rng(38))
        assert len(calls) == b2
        assert all(np.array_equal(rows, calls[0]) for rows in calls)
        train[b2] = calls[0]
    assert len(train[2]) == 30 - 8
    assert np.array_equal(train[2], train[50])

    for n, frac in ((5, 0.25), (30, 0.95)):  # 1 holdout row; 2 training rows
        rng = np.random.default_rng(39)
        before = rng.bit_generator.state
        with pytest.raises(ConfigError, match="holdout_frac"):
            gen_haar_select(4, 9, x[:n], y[:n], "gaussian", 5, frac, 0.0, rng)
        assert rng.bit_generator.state == before
        assert rng.bit_generator.seed_seq.n_children_spawned == 0


@given(n=st.integers(8, 40), q=st.integers(1, 60), m_frac=st.floats(0.0, 1.0),
       b2=st.integers(1, 6), family=st.sampled_from(["gaussian", "binomial"]),
       eps=st.sampled_from([0.0, 0.1]), seed=st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_haar_select_equals_scoring_every_candidate_on_its_q(n, q, m_frac, b2, family, eps, seed):
    """One draw per candidate, drawn in X's row span where it applies (n < q included): the same
    winner and rng state as the direct reference."""
    m = max(1, round(m_frac * q))  # m_frac = 1 gives m == q
    x, y = _haar_problem(seed, n, q, family)
    _assert_matches_reference(m, q, x, y, family, b2, eps, seed + 1)


def test_haar_select_m_equal_q_scores_on_q():
    """At m == q every candidate spans all columns; the winner is the one scored on Q."""
    x, y = _haar_problem(31, 40, 6, "gaussian")
    _assert_matches_reference(6, 6, x, y, "gaussian", 8, 0.0, 32)


@pytest.mark.parametrize("family, eps", [("gaussian", 0.0), ("binomial", 0.1)])
def test_haar_select_all_candidates_fail_keeps_the_first(family, eps, monkeypatch):
    """With every candidate failing, the first draw wins and rng ends past the b2 draws (and,
    drawn in X's row span, past the winner's completion)."""
    x, y = _haar_problem(33, 30, 9, family)

    def always_singular(*args):
        raise SingularError("forced singular candidate")

    monkeypatch.setattr(projection_mod, "fit_penalized_glm", always_singular)
    assert _assert_matches_reference(4, 9, x, y, family, 5, eps, 34, always_singular) == 0


def test_haar_select_unselected_winner_is_haar_distributed(monkeypatch):
    """With every fit failing, the first candidate wins unselected, so its law is Haar's: the
    mean of phi^T phi is (m / q) I.  At n < q that holds only if the winner's completion
    outside the rows' span is right; V H alone would give (m / n) V V^T."""
    x, y = _haar_problem(40, 10, 16, "gaussian")
    monkeypatch.setattr(projection_mod, "fit_penalized_glm", _only_nth_fits(0)[0])
    rng, draws, m = np.random.default_rng(41), 2000, 2
    mean = sum(dense(phi).T @ dense(phi) for phi in (
        gen_haar_select(m, 16, x, y, "gaussian", 2, 0.25, 0.0, rng) for _ in range(draws)))
    # entries of phi^T phi have sd <= 0.12 here (0.115 measured), so their means about 0.0026
    assert np.max(np.abs(mean / draws - m / 16 * np.eye(16))) < 0.015


@pytest.mark.parametrize("family, eps", [("gaussian", 0.0), ("binomial", 0.1)])
def test_haar_select_holds_one_candidate_at_a_time(family, eps, traced_peak):
    """b2 = 50 candidates of 40 x 200 peak below 12 candidates' bytes, not 50."""
    m, q, b2 = 40, 200, 50
    x, y = _haar_problem(35, 60, q, family)
    peak = traced_peak(
        lambda: gen_haar_select(m, q, x, y, family, b2, 0.25, eps, np.random.default_rng(36)),
        lambda: gen_haar_select(m, q, x, y, family, 2, 0.25, eps, np.random.default_rng(0)))
    one = m * q * 8
    assert peak < 12 * one, f"peak {peak / one:.1f} x one candidate"


def test_haar_select_refuses_tiny_holdout():
    # round(0.25 * 5) = 1 held-out row is below the minimum of 2
    x = np.random.default_rng(12).standard_normal((5, 4))
    with pytest.raises(ConfigError):
        gen_haar_select(2, 4, x, np.zeros(5), "gaussian", 3, 0.25, 0.0, np.random.default_rng(0))


def test_matmul_matches_dense_product():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((20, 30))
    for phi in (
        gen_cw(6, 30, False, np.random.default_rng(14)),
        gen_sparse(6, 30, 0.3, np.random.default_rng(15)),
        gen_gaussian(6, 30, np.random.default_rng(16)),
    ):
        assert np.max(np.abs(phi.matmul(x) - x @ dense(phi).T)) < 1e-12


@given(m=st.integers(1, 8), q=st.integers(1, 40), data_driven=st.booleans(),
       seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=200, deadline=None)
def test_backmap_matches_dense_transpose(m, q, data_driven, seed, data):
    """A cw matrix has one entry per column, so both sides round the same single product."""
    rng = np.random.default_rng(seed)
    phi = gen_cw(m, q, data_driven, rng)
    phi = phi.with_column_values(rng.standard_normal(q)) if data_driven else phi
    gamma = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=m, max_size=m)))
    assert np.array_equal(phi.backmap(gamma), dense(phi).T @ gamma)


@given(m=st.integers(1, 6), q=st.integers(1, 12), summed=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_sparse_backmap_equals_the_transposed_product(m, q, summed, seed):
    """backmap gives mat.T @ gamma byte for byte, signed zeros included, on CSC matrices with
    explicit zeros and empty columns: stored as given (rows unsorted and repeated within a
    column) or summed from plugin triplets."""
    rng = np.random.default_rng(seed)

    def values(size):  # about 30 % of them +0.0 or -0.0
        return np.where(rng.random(size) < 0.3, rng.choice([0.0, -0.0], size),
                        rng.standard_normal(size))

    counts = rng.integers(0, 4, q)  # 0 leaves a column empty
    rows, vals = rng.integers(0, m, counts.sum()), values(counts.sum())
    if summed:  # a repeated (row, column) cell is summed into one entry
        cols = np.repeat(np.arange(q), counts)
        spec = RpSpec(kind=lambda m_, idx, data, controls: (rows, cols, vals))
        phi = make_projection(spec, m, np.arange(q), rng)
    else:
        mat = scipy.sparse.csc_array((vals, rows, np.r_[0, np.cumsum(counts)]), shape=(m, q))
        phi = ProjectionMatrix("plugin", mat)
    gamma = values(m)
    assert phi.backmap(gamma).tobytes() == (phi.mat.T @ gamma).tobytes()


def test_with_column_values_shares_structure():
    phi = gen_cw(4, 10, True, np.random.default_rng(19))
    values = np.arange(10.0) - 4.0  # one explicit zero, kept as an entry
    new = phi.with_column_values(values)
    rows, cols, _ = phi.triplets()
    new_rows, new_cols, new_vals = new.triplets()
    assert np.array_equal(new_rows, rows) and np.array_equal(new_cols, cols)
    assert np.array_equal(new_vals, values)
    assert new.kind == "cw" and new.data_driven
    gauss = gen_gaussian(3, 5, np.random.default_rng(20))
    with pytest.raises(ConfigError):
        gauss.with_column_values(np.ones(5))


def _triplet_matmul(rows, cols, vals, m, q, x):
    """x @ phi.T through a CSR matrix built from the triplets, as spar once did per call."""
    phi = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(m, q))
    return np.asarray((phi @ x.T).T)


def _triplet_backmap(rows, cols, vals, q, gamma):
    """phi.T @ gamma by np.add.at over the triplets, as spar once did."""
    out = np.zeros(q)
    np.add.at(out, cols, vals * gamma[rows])
    return out


@given(m=st.integers(1, 8), q=st.integers(1, 40), n=st.integers(1, 10),
       data_driven=st.booleans(), fortran=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_cw_products_equal_triplet_reference(m, q, n, data_driven, fortran, seed):
    """matmul and backmap of a cw matrix give the bits of the triplet code, on C and F x; matmul
    also gives the bits and the memory layout of x @ phi.mat.T, which later products read."""
    rng = np.random.default_rng(seed)
    diag = np.where(rng.random(q) < 0.2, 0.0, rng.standard_normal(q)) if data_driven else None
    x = rng.standard_normal((n, q))
    x = np.asfortranarray(x) if fortran else x
    gamma = rng.standard_normal(m)
    phi = gen_cw(m, q, data_driven, np.random.default_rng(seed + 1))
    draws = np.random.default_rng(seed + 1)  # gen_cw's own draws: target rows, then signs
    rows = draws.integers(0, m, size=q)
    vals = draws.integers(0, 2, size=q) * 2.0 - 1.0
    if data_driven:  # as fit_models sets a data-driven matrix's values
        phi, vals = phi.with_column_values(diag), diag
    cols = np.arange(q)
    z, direct = phi.matmul(x), x @ phi.mat.T
    assert np.array_equal(z, _triplet_matmul(rows, cols, vals, m, q, x))
    assert np.array_equal(z, direct) and z.strides == direct.strides
    assert np.array_equal(phi.backmap(gamma), _triplet_backmap(rows, cols, vals, q, gamma))


@given(m=st.integers(1, 6), q=st.integers(1, 12), n=st.integers(1, 8),
       fortran=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_plugin_triplet_products_equal_triplet_reference(m, q, n, fortran, seed):
    """Duplicate-free plugin triplets, in any order, give the bits of the triplet code.

    np.add.at sums a column's entries in the order it is given them and the
    stored matrix sums them by row, so backmap's reference takes the
    triplets column by column, rows ascending.
    """
    rng = np.random.default_rng(seed)
    flat = rng.permutation(m * q)[: rng.integers(1, m * q + 1)]  # distinct cells, any order
    rows, cols = np.divmod(flat, q)
    vals = rng.standard_normal(flat.size)
    x = rng.standard_normal((n, q))
    x = np.asfortranarray(x) if fortran else x
    gamma = rng.standard_normal(m)
    spec = RpSpec(kind=lambda m_, idx, data, controls: (rows, cols, vals))
    phi = make_projection(spec, m, np.arange(q), rng)
    assert scipy.sparse.issparse(phi.mat)
    assert np.array_equal(phi.matmul(x), _triplet_matmul(rows, cols, vals, m, q, x))
    order = np.lexsort((rows, cols))
    assert np.array_equal(phi.backmap(gamma),
                          _triplet_backmap(rows[order], cols[order], vals[order], q, gamma))


def test_triplets_roundtrip():
    phi = gen_cw(5, 11, False, np.random.default_rng(21))
    rows, cols, vals = phi.triplets()
    rebuilt = np.zeros((phi.m, phi.q))
    rebuilt[rows, cols] = vals
    assert np.array_equal(rebuilt, dense(phi))


def test_rp_spec_validation_and_resolution():
    with pytest.raises(ConfigError):
        RpSpec(kind="fourier").validated()
    with pytest.raises(ConfigError):
        RpSpec(psi=0.0).validated()
    with pytest.raises(ConfigError):
        RpSpec(mslow=10, msup=5).validated()
    spec = RpSpec().resolved(100, 2000)
    assert spec.mslow == int(np.ceil(np.log(2000)))
    assert spec.msup == 50
    # defaulted lower bound collapses to msup when log p exceeds n/2
    tight = RpSpec().resolved(6, 2000)
    assert tight.mslow == tight.msup == 3


def test_rp_spec_kind_may_name_a_registered_plugin():
    def ones(m, index_set, snapshot, controls):
        return np.ones((m, len(index_set)))

    register_rp_plugin("wide-ones", ones)
    assert RpSpec(kind="wide-ones").validated() == RpSpec(kind="wide-ones")
    assert RpSpec(kind=ones).validated().kind is ones
    for kind in ("fourier", "plugin"):  # "plugin" is no kind: the name or callable is
        with pytest.raises(ConfigError) as exc:
            RpSpec(kind=kind).validated()
        assert str(exc.value) == (
            f"unknown projection kind {kind!r}; builtins are gaussian, sparse, cw, haar_select, "
            "and no projection plugin is registered under that name")


def test_rp_spec_spells_haar_select_with_a_hyphen():
    """The command line's "haar-select" validates to the builtin, so the config echo names it once."""
    hyphen = RpSpec(kind="haar-select", b2=5).validated()
    assert hyphen == RpSpec(kind="haar_select", b2=5).validated()
    with pytest.raises(ConfigError, match="b2 must be"):
        RpSpec(kind="haar-select", b2=0).validated()


def test_make_projection_dispatch():
    """Each builtin kind is its generator on the same stream; a data-driven cw matrix comes back
    marked, with gen_cw's signs (fit_models gives it values), and haar_select needs the data."""
    idx = np.arange(7)
    for spec, gen in (
        (RpSpec(kind="gaussian"), lambda rng: gen_gaussian(3, 7, rng)),
        (RpSpec(kind="sparse", psi=0.5), lambda rng: gen_sparse(3, 7, 0.5, rng)),
        (RpSpec(kind="cw", data_driven=False), lambda rng: gen_cw(3, 7, False, rng)),
        (RpSpec(kind="cw"), lambda rng: gen_cw(3, 7, True, rng)),
    ):
        phi, want = make_projection(spec, 3, idx, np.random.default_rng(1)), gen(np.random.default_rng(1))
        assert (phi.kind, phi.data_driven) == (want.kind, want.data_driven)
        assert np.array_equal(dense(phi), dense(want))
    assert make_projection(RpSpec(kind="cw"), 3, idx, np.random.default_rng(1)).data_driven
    with pytest.raises(ConfigError):
        make_projection(RpSpec(kind="haar_select"), 3, idx, np.random.default_rng(22))


def test_projection_plugin_normalization():
    def dense_plugin(m, index_set, data, controls):
        return np.full((m, len(index_set)), 2.0)

    register_rp_plugin("all_twos", dense_plugin)
    spec = RpSpec(kind="all_twos")
    phi = make_projection(spec, 2, np.arange(4), np.random.default_rng(2))
    assert phi.kind == "plugin"
    assert np.all(dense(phi) == 2.0)

    triplets = RpSpec(kind=lambda m, idx, data, controls: ([0.0, 7], [3, 0], [2.0, 5.0]))
    phi = make_projection(triplets, 8, np.arange(4), np.random.default_rng(2))
    assert scipy.sparse.issparse(phi.mat) and dense(phi)[0, 3] == 2.0 and dense(phi)[7, 0] == 5.0

    # a plugin's ProjectionMatrix is never data-driven, so it keeps its own values
    marked = gen_cw(3, 4, True, np.random.default_rng(6)).with_column_values([0.5, -2.0, 3.0, 0.0])
    phi = make_projection(RpSpec(kind=lambda m, idx, data, controls: marked), 3,
                          np.arange(4), np.random.default_rng(2))
    assert (phi.kind, phi.data_driven, marked.data_driven) == ("cw", False, True)
    assert phi.mat is marked.mat

    spec_bad = RpSpec(kind=lambda m, idx, data, controls: np.ones((m + 1, len(idx))))
    with pytest.raises(DataError):
        make_projection(spec_bad, 2, np.arange(4), np.random.default_rng(3))
    with pytest.raises(ConfigError):
        make_projection(RpSpec(kind="missing"), 2, np.arange(4), np.random.default_rng(4))


@pytest.mark.parametrize("rows, cols, vals", [
    ([0, 8], [0, 1], [1.0, 1.0]),  # row outside [0, m)
    ([0, 1], [0, 4], [1.0, 1.0]),  # column outside [0, q)
    ([-1, 1], [0, 1], [1.0, 1.0]),
    ([0, 1], [0, 1, 2], [1.0, 1.0]),  # unequal lengths
    ([np.inf, 1], [0, 1], [1.0, 1.0]),  # integral-looking floats that no int can hold
    ([2.0**63, 1], [0, 1], [1.0, 1.0]),
    ([0.5, 1], [0, 1], [1.0, 1.0]),  # non-integer index
    (["a", "b"], [0, 1], [1.0, 1.0]),
    ([[0, 1]], [[0, 1]], [[1.0, 1.0]]),
])
def test_projection_plugin_triplets_validated(rows, cols, vals):
    spec = RpSpec(kind=lambda m, idx, data, controls: (rows, cols, vals))
    with pytest.raises(DataError):
        make_projection(spec, 8, np.arange(4), np.random.default_rng(5))
