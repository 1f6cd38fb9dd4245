"""Synthetic data generation, CSV parsing, and model persistence."""

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import spar
import spar.data as data_mod
from spar import fit_spar, fit_spar_cv
from spar.data import (
    SyntheticSpec,
    dumps,
    generate_synthetic,
    load_csv,
    load_model,
    model_from_dict,
    save_csv,
    save_model,
    serialize_model,
)
from spar.errors import ConfigError, ParseError, VersionError


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(n_active=10, p=5).validated()
    with pytest.raises(ConfigError):
        SyntheticSpec(coef_pool=(0.0, 1.0)).validated()
    with pytest.raises(ConfigError):
        SyntheticSpec(sigma2=-1.0).validated()
    with pytest.raises(ConfigError):
        SyntheticSpec(rho=1.0).validated()
    with pytest.raises(ConfigError):
        SyntheticSpec(active_positions="middle").validated()
    with pytest.raises(ConfigError):
        SyntheticSpec(family="gamma").validated()


@pytest.mark.parametrize("seed", [-1, 1.5, None])
def test_generate_synthetic_refuses_a_bad_seed(seed):
    with pytest.raises(ConfigError, match="seed"):
        generate_synthetic(SyntheticSpec(n=5, p=3, n_active=1), seed)


def test_generate_synthetic_shapes_truth_and_determinism():
    spec = SyntheticSpec(n=30, p=12, n_active=4, n_test=8)
    ds, truth = generate_synthetic(spec, seed=5)
    assert ds.x.shape == (30, 12) and ds.y.shape == (30,)
    assert ds.x_test.shape == (8, 12) and ds.y_test.shape == (8,)
    beta = np.asarray(truth["beta"])
    assert np.count_nonzero(beta) == 4
    assert set(np.abs(beta[beta != 0])) <= {1.0, 2.0, 3.0}
    assert truth["mu"] == 1.0 and truth["sigma2"] == 83.0
    assert sorted(truth["active"]) == sorted(np.flatnonzero(beta).tolist())
    ds2, truth2 = generate_synthetic(spec, seed=5)
    assert np.array_equal(ds.x, ds2.x) and np.array_equal(ds.y, ds2.y)
    ds3, _ = generate_synthetic(spec, seed=6)
    assert not np.array_equal(ds.x, ds3.x)


def test_generate_synthetic_first_positions_and_families():
    spec = SyntheticSpec(n=25, p=10, n_active=3, active_positions="first")
    _, truth = generate_synthetic(spec, seed=1)
    assert truth["active"] == [0, 1, 2]
    ds, _ = generate_synthetic(SyntheticSpec(n=40, p=6, n_active=2, family="binomial"), seed=2)
    assert set(np.unique(ds.y)) <= {0.0, 1.0}
    ds, _ = generate_synthetic(
        SyntheticSpec(n=40, p=6, n_active=2, family="poisson", mu=0.5, sigma2=0.25), seed=3
    )
    assert np.all(ds.y >= 0) and np.allclose(ds.y, np.round(ds.y))


def test_generate_synthetic_variance_decomposition():
    """var(y) should concentrate around sum(beta^2) + sigma2."""
    spec = SyntheticSpec(n=400, p=50, n_active=10, sigma2=83.0)
    gaps = []
    for seed in range(12):
        ds, truth = generate_synthetic(spec, seed=seed)
        expected = float(np.sum(np.asarray(truth["beta"]) ** 2)) + 83.0
        gaps.append(np.var(ds.y, ddof=1) / expected - 1.0)
    # var of a variance estimate is about 2/(n-1) relative
    se = np.sqrt(2.0 / 399 / 12)
    assert abs(np.mean(gaps)) < 3 * se


def test_generate_synthetic_ar1_correlation():
    spec = SyntheticSpec(n=4000, p=6, n_active=0, rho=0.6)
    ds, _ = generate_synthetic(spec, seed=11)
    cors = [np.corrcoef(ds.x[:, j], ds.x[:, j + 1])[0, 1] for j in range(5)]
    assert abs(np.mean(cors) - 0.6) < 0.03
    assert abs(np.std(ds.x[:, 3]) - 1.0) < 0.05


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((7, 3))
    y = rng.standard_normal(7)
    path = tmp_path / "data.csv"
    save_csv(path, x, y)
    ds = load_csv(path, response="y")
    assert np.array_equal(ds.x, x)  # repr round-trip is exact
    assert np.array_equal(ds.y, y)
    assert ds.colnames == ["x1", "x2", "x3"]
    ds2 = load_csv(path, response=0)
    assert np.array_equal(ds2.y, y)
    assert data_mod._parse_fast(path, True) is not None  # read by loadtxt, not the fallback


def test_save_csv_bytes_equal_csv_writer(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 3)) * np.array([1e-300, 1.0, 1e300])
    x[0, 0] = -0.0
    y = np.array([0.0, 1.0, -2.5, 1e-7])
    names = ["y", "plain", "has,comma", 'has "quote"']
    for args in ((x, y, names), (x, None, None), (x, y, None)):
        path = tmp_path / "out.csv"
        save_csv(path, *args)
        xx, yy, cols = args
        if cols is None:
            cols = ([] if yy is None else ["y"]) + [f"x{j + 1}" for j in range(3)]
        ref = io.StringIO(newline="")
        w = csv.writer(ref)
        w.writerow(cols)
        for i in range(xx.shape[0]):
            w.writerow(([] if yy is None else [repr(float(yy[i]))]) + [repr(float(v)) for v in xx[i]])
        assert path.read_bytes() == ref.getvalue().encode()
    ds = load_csv(path, response="y")
    assert np.array_equal(ds.x, x) and np.array_equal(ds.y, y)


_HOSTILE = ['"1.5"', "1_0", "", " ", "nan", "1e500", "-inf", "#", "#2", "0x1p3", "\u0661",
            " 2.5 ", "1e-400", '"a,b"', "+3", "1d5"]
_FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_NAMES = st.sampled_from(["y", "x1", "x2", " a b ", '"q,r"', "y"])


@st.composite
def _csv_case(draw):
    """(text, has_header, response): half the tables clean, half with hostile cells and rows."""
    width = draw(st.integers(1, 4))
    has_header = draw(st.booleans())
    hostile = draw(st.booleans())
    cells = _FLOATS | st.sampled_from(_HOSTILE) if hostile else _FLOATS
    shapes = ["ok"] * 6 + (["short", "long", "trailing", "spaces"] if hostile else []) + ["blank"]
    lines = [",".join(draw(st.lists(_NAMES, min_size=width, max_size=width)))] if has_header else []
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.lists(cells, min_size=width, max_size=width))
        shape = draw(st.sampled_from(shapes))
        if shape == "short":
            row = row[:-1]
        elif shape == "long":
            row = row + ["1.0"]
        lines.append({"trailing": ",".join(row) + ",", "blank": "", "spaces": "  "}.get(
            shape, ",".join(row)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    response = draw(st.none() | st.integers(-1, width) | _NAMES.map(str.strip))
    return text, has_header, response


def _load_outcome(path, has_header, response):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may escape either parser
            ds = load_csv(path, has_header=has_header, response=response)
    except Exception as exc:  # the outcome compared is the error's type and message
        return type(exc), str(exc)
    y = None if ds.y is None else (ds.y.shape, ds.y.tobytes())
    return (ds.x.shape, ds.x.tobytes()), y, ds.colnames


@given(_csv_case())
@settings(max_examples=300, deadline=None)
def test_load_csv_equals_strict_parser(case):
    text, has_header, response = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(text.encode())
        got = _load_outcome(path, has_header, response)
        with mock.patch.object(data_mod, "_parse_fast", return_value=None):
            want = _load_outcome(path, has_header, response)
    assert got == want


@pytest.mark.parametrize("response", [-0.5, 1.7, True, np.float64(0.5)], ids=repr)
def test_load_csv_refuses_a_response_index_that_is_not_whole(response, tmp_path):
    """int() would read -0.5 as column 0 and 1.7 or True as column 1; a whole float is an index."""
    path = tmp_path / "t.csv"
    path.write_text("y,a,b\n1,2,3\n4,5,6\n")
    with pytest.raises(ConfigError, match="response must be a whole number"):
        load_csv(path, response=response)
    assert load_csv(path, response=1.0).y.tolist() == [2.0, 5.0]


def test_csv_no_response_and_headerless(tmp_path):
    x = np.array([[1.5, 2.5], [3.5, 4.5]])
    path = tmp_path / "x.csv"
    save_csv(path, x)
    ds = load_csv(path)
    assert np.array_equal(ds.x, x) and ds.y is None
    raw = tmp_path / "raw.csv"
    raw.write_text("1,2\n3,4\n")
    ds = load_csv(raw, has_header=False)
    assert np.array_equal(ds.x, [[1.0, 2.0], [3.0, 4.0]])


def test_csv_parse_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(ParseError) as exc:
        load_csv(p)
    assert "row 3" in str(exc.value) and "column 2" in str(exc.value)

    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ParseError):
        load_csv(p)

    p.write_text("a,b\n1,nan\n")
    with pytest.raises(ParseError):
        load_csv(p)

    p.write_text("")
    with pytest.raises(ParseError):
        load_csv(p)

    p.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError):
        load_csv(p, response="z")
    with pytest.raises(ParseError):
        load_csv(p, has_header=False, response="a")  # names need a header


def test_csv_header_body_width_mismatch(tmp_path):
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("a,b\n1,2,3\n4,5,6\n")
    wide = tmp_path / "wide.csv"
    wide.write_text("a,b,c,y\n1,2,3\n4,5,6\n")
    for path, response in ((narrow, 0), (narrow, "a"), (wide, "y"), (wide, "a"), (wide, 2)):
        with pytest.raises(ParseError, match="header has (2|4) columns but the body has 3"):
            load_csv(path, response=response)
    # without a response the table loads as before
    assert load_csv(narrow).x.shape == (2, 3) and load_csv(narrow).colnames == ["a", "b"]
    assert load_csv(wide).x.shape == (2, 3)


def _small_fit(cv=False):
    rng = np.random.default_rng(7)
    n, p = 45, 25
    x = rng.standard_normal((n, p))
    y = x[:, 0] * 2.0 - x[:, 3] + 0.5 * rng.standard_normal(n)
    if cv:
        return fit_spar_cv(x, y, nfolds=3, nnu=4, nummods=(2, 3), seed=13), x
    return fit_spar(x, y, nnu=4, nummods=(2, 3), seed=13), x


def test_model_roundtrip_preserves_predictions(tmp_path):
    ens, x = _small_fit()
    path = tmp_path / "model.json"
    save_model(ens, path)
    back = load_model(path)
    for t in ("response", "link"):
        assert np.max(np.abs(ens.predict(x, type=t) - back.predict(x, type=t))) < 1e-12
    assert back.best == ens.best
    assert np.array_equal(back.nus, ens.nus)
    assert back.family.name == ens.family.name
    assert back.config == ens.config


def test_model_roundtrip_cv_grid(tmp_path):
    ens, x = _small_fit(cv=True)
    back = model_from_dict(json.loads(serialize_model(ens)))
    assert back.one_se == ens.one_se
    assert len(back.grid.cells) == len(ens.grid.cells)
    for a, b in zip(back.grid.cells, ens.grid.cells):
        assert a.value == b.value and a.se == b.se and a.active == b.active


def test_model_version_gate():
    ens, _ = _small_fit()
    doc = json.loads(serialize_model(ens))
    doc["version"] = "2.0"
    with pytest.raises(VersionError):
        model_from_dict(doc)
    doc["version"] = "1.9"  # same major: accepted
    model_from_dict(doc)


def test_model_refuses_a_pair_its_grid_does_not_pick(tmp_path):
    """best, one_se and cv are read off the grid; stored values that disagree are refused."""
    ens, _ = _small_fit(cv=True)
    doc = json.loads(serialize_model(ens))
    other = next(c for c in ens.grid.cells if (c.nu, c.nummod) != ens.best)
    edits = ({"best": {"nu": other.nu, "nummod": other.nummod}},
             {"one_se": None}, {"cv": False})
    for edit in edits:
        path = tmp_path / "edited.json"
        path.write_text(json.dumps({**doc, **edit}))
        with pytest.raises(ParseError, match="disagrees with its selection"):
            load_model(path)
    with pytest.raises(AttributeError):
        ens.best = (other.nu, other.nummod)  # read-only: the grid decides


def test_model_malformed_payloads(tmp_path):
    ens, _ = _small_fit()
    text = serialize_model(ens)
    truncated = tmp_path / "truncated.json"
    truncated.write_text(text[: len(text) // 2])
    with pytest.raises(ParseError, match="invalid JSON"):
        load_model(truncated)
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ParseError, match="not a model document"):
        load_model(other)
    p = tmp_path / "missing.json"
    with pytest.raises(ParseError):
        load_model(p)


def test_loaded_beta_recomputed_from_projection():
    ens, _ = _small_fit()
    doc = json.loads(serialize_model(ens))
    back = model_from_dict(doc)
    for a, b in zip(ens.models, back.models):
        assert np.max(np.abs(a.beta_vals - b.phi.backmap(b.gamma))) < 1e-15


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_MODELS = sorted(GOLDEN_DIR.glob("*/model.json"))


@pytest.mark.parametrize("path", GOLDEN_MODELS, ids=lambda p: p.parent.name)
def test_saving_a_loaded_golden_model_writes_its_bytes(path, tmp_path):
    """A golden re-saves to its bytes, also from the indent=1 layout older files were written in."""
    text = path.read_text()
    indented = tmp_path / "model.json"
    indented.write_text(json.dumps(json.loads(text), indent=1))
    for source in (path, indented):
        assert serialize_model(load_model(source)) == text, source.name


def _coo_round_trip(d):
    """The CSC a sparse projection was once loaded as: its triplets through a COO array."""
    coo = scipy.sparse.coo_array((np.asarray(d["vals"], dtype=float), (d["rows"], d["cols"])),
                                 shape=(d["m"], d["q"]))
    return coo.tocsc()


def _swap_first_two(d):
    for key in ("rows", "cols", "vals"):
        d[key][:2] = d[key][1::-1]


def _repeat_first(d):
    for key in ("rows", "cols", "vals"):
        d[key].insert(0, d[key][0])


_TRIPLET_EDITS = {
    "first two swapped": _swap_first_two,
    "first repeated": _repeat_first,
    "col q": lambda d: d["cols"].__setitem__(-1, d["q"]),
    "col -1": lambda d: d["cols"].__setitem__(0, -1),
    "row m": lambda d: d["rows"].__setitem__(0, d["m"]),
    "row -1": lambda d: d["rows"].__setitem__(-1, -1),
    "short vals": lambda d: d["vals"].pop(),
}


@pytest.mark.parametrize("path", [p for p in GOLDEN_MODELS if '"storage": "sparse"' in p.read_text()],
                         ids=lambda p: p.parent.name)
def test_sparse_projections_load_from_their_triplets(path):
    """A sparse projection loads as the COO round trip did (data, indices, indptr and their
    dtypes), and triplets that are not strictly increasing (col, row) pairs inside the shape,
    which no fit writes, are a ParseError."""
    doc = json.loads(path.read_text())
    sparse = [md for md in doc["models"] if md["phi"]["storage"] == "sparse"]
    loaded = [m for m in model_from_dict(doc).models if scipy.sparse.issparse(m.phi.mat)]
    for md, model in zip(sparse, loaded, strict=True):
        ref = _coo_round_trip(md["phi"])
        for field in ("data", "indices", "indptr"):
            got, want = getattr(model.phi.mat, field), getattr(ref, field)
            assert np.array_equal(got, want) and got.dtype == want.dtype, field
    for name, edit in _TRIPLET_EDITS.items():
        edited = json.loads(path.read_text())
        edit(next(md for md in edited["models"] if md["phi"]["storage"] == "sparse")["phi"])
        with pytest.raises(ParseError, match="strictly increasing"):
            model_from_dict(edited)


@pytest.mark.parametrize("storage", ["bogus", "dense"])
def test_load_refuses_a_projection_storage_no_fit_writes(storage, tmp_path):
    """A storage must be "dense" or "sparse", and a data-driven projection is a sparse cw matrix:
    gen_cw alone draws one, and CV folds read its stored CSC values."""
    doc = json.loads((GOLDEN_DIR / "binomial-cw-cv" / "model.json").read_text())
    phi = doc["models"][0]["phi"]
    assert (phi["kind"], phi["storage"], phi["data_driven"]) == ("cw", "sparse", True)
    phi["storage"] = storage
    edited = tmp_path / "model.json"
    edited.write_text(json.dumps(doc))
    message = "neither 'dense' nor 'sparse'" if storage == "bogus" else "a dense cw"
    with pytest.raises(ParseError, match=message):
        load_model(edited)


def _other_measure(doc, md, j):
    doc["selection"]["measure"] = "mae" if doc["measure"] != "mae" else "mse"


def _set_index(value):
    """The corruption that sets one index of a model's index set to value(p)."""
    def corrupt(doc, md, j):
        md["index_set"][j % len(md["index_set"])] = value(doc["p"])
    return corrupt


_CORRUPTIONS = {
    "selection measure": _other_measure,
    "p": lambda doc, md, j: doc.update(p=doc["p"] + 1),
    "empty index set": lambda doc, md, j: md.update(index_set=[]),
    "index p": _set_index(lambda p: p),
    "index -1": _set_index(lambda p: -1),
    "projection q": lambda doc, md, j: md["phi"].update(q=md["phi"]["q"] + 1),
    "short gamma": lambda doc, md, j: md.update(gamma=md["gamma"][:-1]),
    "nummods past the models": lambda doc, md, j: doc["nummods"].__setitem__(
        j % len(doc["nummods"]), len(doc["models"]) + 1),
    "nummods 0": lambda doc, md, j: doc["nummods"].__setitem__(j % len(doc["nummods"]), 0),
    "grid nummod past the models": lambda doc, md, j: doc["selection"]["cells"][
        j % len(doc["selection"]["cells"])].update(nummod=len(doc["models"]) + 1),
    "x_sd 0": lambda doc, md, j: doc["stats"]["x_sd"].__setitem__(j % doc["p"], 0.0),
    "x_sd inf": lambda doc, md, j: doc["stats"]["x_sd"].__setitem__(j % doc["p"], float("inf")),
    "y_sd not finite and > 0": lambda doc, md, j: doc["stats"].update(
        y_sd=(0.0, -1.0, float("nan"), float("inf"))[j % 4]),
}


@given(st.sampled_from(GOLDEN_MODELS), st.sampled_from(sorted(_CORRUPTIONS)),
       st.integers(0, 2**16), st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_load_refuses_a_golden_model_that_cannot_be_a_fit(path, corruption, k, j):
    """One edit of a golden model.json that no fit writes: load_model raises ParseError."""
    doc = json.loads(path.read_text())
    _CORRUPTIONS[corruption](doc, doc["models"][k % len(doc["models"])], j)
    with tempfile.TemporaryDirectory() as tmp:
        edited = Path(tmp) / "model.json"
        edited.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_model(edited)


# loads each model file named on its command line under a 1 GiB address-space cap, so a load
# that allocates what the file does not hold fails as MemoryError instead of exhausting memory
_CAPPED_LOADER = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from spar.data import load_model
for path in sys.argv[1:]:
    try:
        load_model(path)
        print("loaded")
    except Exception as exc:
        print(type(exc).__name__)
"""

_LOAD_TIME_EDITS = {
    **{f"y_mean {v!r}": (lambda v: lambda doc, md: doc["stats"].update(y_mean=v))(v)
       for v in (None, "0.5", [0.5], float("nan"))},
    **{f"gamma0 {v!r}": (lambda v: lambda doc, md: md.update(gamma0=v))(v)
       for v in (None, "0.5", [0.5], float("nan"), float("-inf"))},
    "phi q 1e9": lambda doc, md: md["phi"].update(q=10**9),
    "phi m 1e9": lambda doc, md: md["phi"].update(m=10**9),
}


@pytest.mark.parametrize("name", ["binomial-cw-cv", "gaussian-gaussian-validation"])
def test_load_refuses_values_a_fit_never_writes_before_using_them(name, tmp_path):
    """A stats y_mean or a gamma0 that is not a finite number, and a projection m or q that the
    model's gammas or index set do not hold, are a ParseError at load, not a TypeError at first
    use or an m x q allocation; the loads run in a child process under an address-space cap."""
    paths = []
    for k, (case, edit) in enumerate(_LOAD_TIME_EDITS.items()):
        doc = json.loads((GOLDEN_DIR / name / "model.json").read_text())
        edit(doc, doc["models"][k % len(doc["models"])])
        paths.append(tmp_path / f"{k}.json")
        paths[-1].write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(spar.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _CAPPED_LOADER, *map(str, paths)], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    assert dict(zip(_LOAD_TIME_EDITS, out, strict=True)) == dict.fromkeys(_LOAD_TIME_EDITS,
                                                                           "ParseError")


def _jsonable_reference(obj):
    """obj with dataclasses as dicts and numpy values as tolist(): what json.dumps alone encodes."""
    if is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: _jsonable_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable_reference(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


@dataclass
class _Pair:
    first: object
    second: object


_special_floats = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e16, 1e-5, 5e-324])
_float_arrays = hnp.arrays(np.float64, st.integers(0, 12),
                           elements=st.floats(width=64) | _special_floats)
_int_arrays = hnp.arrays(st.sampled_from([np.int32, np.int64, np.uint8]), st.integers(0, 12))
_other_arrays = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=3, max_side=3)),
    hnp.arrays(np.bool_, st.integers(0, 5)),
    hnp.arrays(np.float32, st.integers(0, 5)),
    hnp.arrays(np.int64, st.just(0)),
    st.builds(np.array, st.floats()),
)
_numpy_scalars = st.one_of(
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    _float_arrays, _int_arrays, _other_arrays, _numpy_scalars,
)
_keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_documents = st.recursive(_leaves, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_keys, children, max_size=4),
    st.builds(_Pair, children, children),
), max_leaves=12)


@given(_documents)
@settings(max_examples=300, deadline=None)
def test_dumps_writes_the_bytes_of_json_dumps(obj):
    assert dumps(obj) == json.dumps(_jsonable_reference(obj))


@pytest.mark.parametrize("obj", [{1, 2}, {"a": [1, {2}]}, {(1, 2): 0}, {np.int64(1): 0},
                                 _Pair(object(), 1), 1j])
def test_dumps_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError):
        json.dumps(_jsonable_reference(obj))
    with pytest.raises(TypeError):
        dumps(obj)
