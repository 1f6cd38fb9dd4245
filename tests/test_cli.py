"""End-to-end command line tests; main() is exercised in process."""

import argparse
import dataclasses
import inspect
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spar
from spar import (
    ModelSpec,
    RpSpec,
    ScreenSpec,
    SyntheticSpec,
    register_rp_plugin,
    register_screen_plugin,
)
from spar.api import fit_spar, fit_spar_cv
from spar.cli import _OPTIONS, _write_csv, build_parser, main
from spar.data import load_csv, load_model, save_csv, serialize_model
from spar.ensemble import linkinv_eval
from spar.errors import NumericError
from spar.projection import gen_sparse


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    rc = main([
        "simulate", "--n", "60", "--p", "30", "--n-active", "5",
        "--sigma2", "2.0", "--n-test", "20", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    return out


FIT_FLAGS = ["--nnu", "5", "--nummods", "2,3", "--seed", "11"]


@pytest.fixture(scope="module")
def fit_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    rc = main([
        "fit", "--data", str(sim_dir / "train.csv"),
        "--val-data", str(sim_dir / "test.csv"),
        *FIT_FLAGS, "--out", str(out),
    ])
    assert rc == 0
    return out


def test_simulate_outputs(sim_dir):
    ds = load_csv(sim_dir / "train.csv", response="y")
    assert ds.x.shape == (60, 30)
    truth = json.loads((sim_dir / "truth.json").read_text())
    assert len(truth["beta"]) == 30 and len(truth["active"]) == 5
    assert load_csv(sim_dir / "test.csv", response="y").x.shape == (20, 30)


def test_fit_artifacts_and_summary(fit_dir, capsys):
    for name in ("model.json", "selection.csv", "summary.txt"):
        assert (fit_dir / name).exists()
    text = (fit_dir / "summary.txt").read_text()
    assert "best: nu=" in text and "active predictors:" in text
    lines = (fit_dir / "selection.csv").read_text().splitlines()
    assert lines[0] == "nu,nummod,mean,se,active"
    assert len(lines) == 1 + 5 * 2  # nnu x nummods grid


def test_predict_matches_library(fit_dir, sim_dir, tmp_path):
    rc = main([
        "predict", "--model", str(fit_dir / "model.json"),
        "--data", str(sim_dir / "test.csv"), "--response", "y",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    got = np.loadtxt(tmp_path / "predictions.csv", skiprows=1)
    ens = load_model(fit_dir / "model.json")
    x = load_csv(sim_dir / "test.csv", response="y").x
    assert np.array_equal(got, ens.predict(x))


def test_predict_refuses_a_model_with_an_index_past_p(fit_dir, sim_dir, tmp_path, capsys):
    """An index set that leaves [0, p) is a malformed model file: exit 3, nothing written."""
    doc = json.loads((fit_dir / "model.json").read_text())
    doc["models"][0]["index_set"][0] = doc["p"]
    (tmp_path / "model.json").write_text(json.dumps(doc))
    out = tmp_path / "pred"
    rc = main(["predict", "--model", str(tmp_path / "model.json"),
               "--data", str(sim_dir / "test.csv"), "--response", "y", "--out", str(out)])
    assert rc == 3
    assert "an index set is empty or leaves [0, 30)" in capsys.readouterr().err
    assert not out.exists()


_GOLDEN_MODEL = Path(__file__).resolve().parent / "golden" / "gaussian-cw-validation" / "model.json"


def _set(*keys, value):
    """The edit of a model document that sets doc[keys[0]]...[keys[-1]] to value."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


@pytest.mark.filterwarnings("error")  # x_sd = 0 once reached prediction, with numpy warnings
@pytest.mark.parametrize("edit,fault", [
    (lambda doc: doc.update(models=doc["models"][:1]), "a nummod leaves [1, 1]"),
    (_set("nummods", 1, value=0), "a nummod leaves [1, 4]"),
    (_set("selection", "cells", 3, "nummod", value=5), "a nummod leaves [1, 4]"),
    (_set("stats", "x_sd", 7, value=0.0), "an x_sd or the y_sd is not finite and > 0"),
    (_set("stats", "x_sd", 0, value=float("nan")), "an x_sd or the y_sd is not finite and > 0"),
    (_set("stats", "y_sd", value=-2.0), "an x_sd or the y_sd is not finite and > 0"),
    (_set("stats", "y_sd", value=float("inf")), "an x_sd or the y_sd is not finite and > 0"),
], ids=["one model, nummods 4 and 2", "nummods 0", "grid nummod 5", "x_sd 0", "x_sd nan",
        "y_sd -2", "y_sd inf"])
def test_predict_refuses_a_model_no_fit_writes(edit, fault, tmp_path, capsys):
    """An edit of a golden model.json that no fit writes is a malformed model file: exit 3."""
    doc = json.loads(_GOLDEN_MODEL.read_text())
    edit(doc)
    (tmp_path / "model.json").write_text(json.dumps(doc))
    save_csv(tmp_path / "new.csv", np.random.default_rng(0).standard_normal((5, doc["p"])))
    out = tmp_path / "pred"
    rc = main(["predict", "--model", str(tmp_path / "model.json"), "--data",
               str(tmp_path / "new.csv"), "--out", str(out)])
    assert rc == 3
    assert fault in capsys.readouterr().err
    assert not out.exists()


def test_coef_export_then_predict(fit_dir, sim_dir, tmp_path):
    cdir = tmp_path / "coef"
    rc = main(["coef", "--model", str(fit_dir / "model.json"),
               "--opt-par", "best", "--out", str(cdir)])
    assert rc == 0
    doc = json.loads((cdir / "coef.json").read_text())
    ens = load_model(fit_dir / "model.json")
    coef = ens.coef(opt_par="best")
    assert doc["active"] == coef.active
    assert np.allclose(doc["beta"], coef.beta, rtol=0, atol=0)

    pdir = tmp_path / "pred"
    rc = main(["predict", "--coef-file", str(cdir / "coef.json"),
               "--data", str(sim_dir / "test.csv"), "--response", "y",
               "--type", "response", "--out", str(pdir)])
    assert rc == 0
    got = np.loadtxt(pdir / "predictions.csv", skiprows=1)
    x = load_csv(sim_dir / "test.csv", response="y").x
    eta = doc["intercept"] + x @ np.asarray(doc["beta"])
    assert np.max(np.abs(got - linkinv_eval(ens.family, eta))) < 1e-12


def test_cv_fold_file_matches_model(sim_dir, tmp_path):
    rc = main([
        "cv", "--data", str(sim_dir / "train.csv"), "--nfolds", "3",
        *FIT_FLAGS, "--out", str(tmp_path),
    ])
    assert rc == 0
    ens = load_model(tmp_path / "model.json")
    lines = (tmp_path / "cv_folds.csv").read_text().splitlines()
    assert lines[0] == "nu,nummod,fold,value"
    assert len(lines) == 1 + sum(len(c.fold_values) for c in ens.grid.cells)
    first = ens.grid.cells[0]
    nu, nummod, fold, value = lines[1].split(",")
    assert float(nu) == first.nu and int(nummod) == first.nummod
    assert int(fold) == 0 and float(value) == first.fold_values[0]
    assert ens.one_se is not None


def test_config_file_merge(sim_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nnu": 5, "nummods": "2,3", "seed": 999}))
    a = tmp_path / "a"
    b = tmp_path / "b"
    # --seed on the command line must override the config value
    rc = main(["fit", "--data", str(sim_dir / "train.csv"),
               "--val-data", str(sim_dir / "test.csv"),
               "--config", str(cfg), "--seed", "11", "--out", str(a)])
    assert rc == 0
    rc = main(["fit", "--data", str(sim_dir / "train.csv"),
               "--val-data", str(sim_dir / "test.csv"),
               *FIT_FLAGS, "--out", str(b)])
    assert rc == 0
    assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()


def test_config_unknown_key(sim_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_nu": 5}))
    rc = main(["fit", "--data", str(sim_dir / "train.csv"),
               "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [
    {"b2": "x"}, {"threads": "two"}, {"nscreen": "five"}, {"split_prop": [0.5]},
    {"mslow": 2.5}, {"nummods": "2,x"}, {"nus": [0.1, None]}, {"rp_data": "maybe"},
    {"psi": True}, {"response": 1.5},
    # predict options, never read by fit or cv
    {"opt_par": "1se"}, {"type": "link"}, {"avg_type": "response"},
], ids=lambda cfg: next(iter(cfg)))
def test_config_malformed_value_exits_2(cfg, sim_dir, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["fit", "--data", str(sim_dir / "train.csv"),
               "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and repr(next(iter(cfg))) in line


@pytest.mark.parametrize("cfg, flags", [
    ({"nnu": 5.0, "seed": 11.0, "nummods": [2, 3.0], "rp_data": True, "psi": 1},
     ["--nnu", "5", "--seed", "11", "--nummods", "2,3", "--rp-data", "true", "--psi", "1"]),
    ({"nnu": "5", "seed": "11", "nummods": "2,3", "rp_data": "false", "split_prop": "0.5",
      "nus": "0,0.1", "nfolds": 4},
     ["--nnu", "5", "--seed", "11", "--nummods", "2,3", "--rp-data", "false",
      "--split-prop", "0.5", "--nus", "0,0.1"]),
], ids=["numbers-and-lists", "strings"])
def test_config_forms_match_flags(cfg, flags, sim_dir, tmp_path):
    """Integral numbers, numeric strings and both list forms parse as their flags do."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    data = ["--data", str(sim_dir / "train.csv"), "--val-data", str(sim_dir / "test.csv")]
    assert main(["fit", *data, "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert main(["fit", *data, *flags, "--out", str(tmp_path / "b")]) == 0
    model_a, model_b = (tmp_path / d / "model.json" for d in "ab")
    assert model_a.read_bytes() == model_b.read_bytes()


def test_fit_defaults_match_library(sim_dir, tmp_path):
    """spar fit with no options writes the model.json fit_spar writes with none.

    The library side gets C-ordered copies of the loaded numbers, as a caller
    holding them in memory would: an F-ordered x changes the last bits.
    """
    assert main(["fit", "--data", str(sim_dir / "train.csv"),
                 "--val-data", str(sim_dir / "test.csv"), "--out", str(tmp_path)]) == 0
    ds = load_csv(sim_dir / "train.csv", response="y")
    val = load_csv(sim_dir / "test.csv", response="y")
    ens = fit_spar(np.array(ds.x, order="C"), ds.y, xval=np.array(val.x, order="C"), yval=val.y)
    assert (tmp_path / "model.json").read_text() == serialize_model(ens)


@pytest.mark.parametrize("col", [0, 12, 30])
def test_predict_csv_bytes_match_library(fit_dir, sim_dir, tmp_path, col):
    """spar predict on a CSV writes ens.predict of the same numbers, whichever
    column holds the response."""
    ds = load_csv(sim_dir / "test.csv", response="y")
    table = np.insert(ds.x, col, ds.y, axis=1)
    names = [f"x{j}" for j in range(ds.x.shape[1])]
    save_csv(tmp_path / "new.csv", table, colnames=names[:col] + ["y"] + names[col:])
    assert main(["predict", "--model", str(fit_dir / "model.json"), "--data",
                 str(tmp_path / "new.csv"), "--response", "y", "--out", str(tmp_path)]) == 0
    preds = load_model(fit_dir / "model.json").predict(np.array(ds.x, order="C"))
    expected = "prediction\n" + "".join(f"{v!r}\n" for v in preds.tolist())
    assert (tmp_path / "predictions.csv").read_text() == expected


def test_exit_codes(sim_dir, tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", str(sim_dir / "train.csv"), "--no-such-flag"])
    assert exc.value.code == 2  # argparse usage error

    rc = main(["fit", "--data", str(sim_dir / "train.csv"),
               "--screen", "bogus", "--out", str(tmp_path / "o")])
    assert rc == 2

    rc = main(["fit", "--data", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / "o")])
    assert rc == 3  # unreadable data file

    monkeypatch.setattr("spar.cli.fit_spar", lambda *a, **k: (_ for _ in ()).throw(
        NumericError("forced")))
    rc = main(["fit", "--data", str(sim_dir / "train.csv"),
               "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "forced" in capsys.readouterr().err


def _colsum(x, y, controls):
    return np.abs(x).sum(axis=0)


def _half_sparse(m, index_set, snapshot, controls):
    return gen_sparse(m, len(index_set), 0.5, snapshot["rng"])


def test_fit_with_registered_plugins_by_flags_and_config(sim_dir, tmp_path):
    """A registered plugin's name works as --screen/--rp and as their config keys."""
    register_screen_plugin("pin-colsum", _colsum)
    register_rp_plugin("pin-half-sparse", _half_sparse)
    data = ["--data", str(sim_dir / "train.csv"), "--val-data", str(sim_dir / "test.csv"),
            *FIT_FLAGS]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"screen": "pin-colsum", "rp": "pin-half-sparse"}))
    assert main(["fit", *data, "--screen", "pin-colsum", "--rp", "pin-half-sparse",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["fit", *data, "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    model_a, model_b = ((tmp_path / d / "model.json").read_bytes() for d in "ab")
    assert model_a == model_b
    config = json.loads(model_a)["config"]
    assert (config["screen"]["method"], config["rp"]["kind"]) == ("pin-colsum", "pin-half-sparse")
    assert "plugin" not in config["screen"] and "plugin" not in config["rp"]


@pytest.mark.parametrize("key, builtins", [
    ("screen", ("cor", "marglik", "ridge")),
    ("rp", ("gaussian", "sparse", "cw", "haar")),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_unknown_plugin_name_exits_2_and_names_the_builtins(key, builtins, source, sim_dir,
                                                            tmp_path, capsys):
    options = ["--" + key, "bogus"]
    if source == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "bogus"}))
        options = ["--config", str(cfg)]
    rc = main(["fit", "--data", str(sim_dir / "train.csv"), *options,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "'bogus'" in line
    assert all(name in line for name in builtins)


def test_report_coefs_in_coef_order(fit_dir, tmp_path):
    order = tmp_path / "order.txt"
    order.write_text("".join(f"{j}\n" for j in range(30, 0, -1)))
    rc = main(["report", "--model", str(fit_dir / "model.json"), "--plot-type", "coefs",
               "--coef-order", str(order), "--prange", "1,2", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "coefs.csv").read_text().splitlines()
    assert [int(l.split(",")[0]) for l in lines[1:]] == [30, 29]


@pytest.mark.parametrize("text, code", [
    ("1\nx\n", 3),  # non-numeric
    ("1\n2.5\n", 3),  # not a whole number
    ("1,2\n3,4\n", 3),  # two columns
    ("1\n1\n", 2),  # whole numbers, but not a permutation of 1..p
])
def test_report_coef_order_exit_codes(text, code, fit_dir, tmp_path, capsys):
    order = tmp_path / "order.txt"
    order.write_text(text)
    rc = main(["report", "--model", str(fit_dir / "model.json"), "--plot-type", "coefs",
               "--coef-order", str(order), "--out", str(tmp_path)])
    assert rc == code
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command, flags", [
    ("fit", ["--seed", "-1"]), ("fit", ["--threads", "0"]), ("cv", ["--nfolds", "1"]),
], ids=["seed", "threads", "nfolds"])
def test_bad_fit_arguments_exit_2(command, flags, sim_dir, tmp_path, capsys):
    rc = main([command, "--data", str(sim_dir / "train.csv"), *flags,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and flags[0][2:] in line


def _flag(name, values):
    return values.map(lambda v: [f"{name}={v}"])  # "=" keeps a value such as -1e-05 a value


# options of spar fit and spar cv that the README refuses (exit 2); each is drawn with the
# defaults for everything else
_REFUSED_FIT_OPTIONS = st.one_of(
    _flag("--nummods", st.integers(max_value=0)), _flag("--nnu", st.integers(max_value=0)),
    _flag("--seed", st.integers(max_value=-1)), _flag("--threads", st.integers(max_value=0)),
    _flag("--nus", st.floats(max_value=-1e-3, allow_infinity=False)),
    _flag("--nscreen", st.integers(max_value=0)), _flag("--b2", st.integers(max_value=0)),
    _flag("--mslow", st.integers(max_value=0)), _flag("--psi", st.floats(1.01, 1e6)),
    _flag("--split-prop", st.sampled_from([0.0, 1.0, 1.5, -0.2])),
    _flag("--screen-eps", st.floats(max_value=-1e-3)), _flag("--model-eps", st.floats(max_value=-1e-3)),
    _flag("--screen", st.sampled_from(["plugin", "bogus"])),
    _flag("--rp", st.sampled_from(["plugin", "bogus"])),
    _flag("--measure", st.sampled_from(["class", "1-auc"])),  # binomial measures, gaussian family
)


@st.composite
def _refused_commands(draw, root):
    """argv of spar fit, cv or predict with one refused option and a --data file that is absent."""
    command = draw(st.sampled_from(["fit", "cv", "predict"]))
    base = [command, "--data", str(root / "absent.csv"), "--out", str(root / "out")]
    if command == "cv":
        option = draw(_REFUSED_FIT_OPTIONS | _flag("--nfolds", st.integers(max_value=1)))
    elif command == "fit":
        option = draw(_REFUSED_FIT_OPTIONS)
    else:
        coef_file = ["--coef-file", str(root / "coef.json")]
        option = draw(st.sampled_from([
            [*coef_file, "--nu", "5"], [*coef_file, "--nummod", "2"],
            [*coef_file, "--opt-par", "best"], [*coef_file, "--avg-type", "response"],
            [*coef_file, "--avg-type", "link"], [*coef_file, "--model", str(root / "m.json")], [],
        ]))
    return [*base, *option]


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_refused_options_exit_2_before_data_is_read(tmp_path_factory, data):
    """A refused option of spar fit, cv or predict exits 2 even though --data names a file that
    does not exist: every argument check runs before any data file is read."""
    root = tmp_path_factory.getbasetemp() / "refused"
    argv = data.draw(_refused_commands(root))
    assert main(argv) == 2
    assert not root.exists()


def test_simulate_refuses_a_negative_seed(tmp_path, capsys):
    assert main(["simulate", "--n", "5", "--p", "3", "--n-active", "1", "--seed", "-1",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: seed must be a whole number >= 0")


def test_spec_errors_come_before_data_errors(tmp_path, capsys):
    rc = main(["fit", "--data", str(tmp_path / "absent.csv"), "--psi", "2",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "psi" in capsys.readouterr().err


def test_unwritable_output_path_exits_3(sim_dir, tmp_path, capsys):
    """--out naming an existing file cannot be made a directory."""
    train = str(sim_dir / "train.csv")
    assert main(["fit", "--data", train, *FIT_FLAGS, "--out", train]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "train.csv" in line


def test_fit_refuses_bad_epsilon_and_ragged_header(sim_dir, tmp_path, capsys):
    for flag in ("--model-eps", "--screen-eps"):
        rc = main(["fit", "--data", str(sim_dir / "train.csv"), flag, "nan",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "epsilon must be finite" in capsys.readouterr().err
    for header in ("a,b", "a,b,c,y"):
        path = tmp_path / "ragged.csv"
        path.write_text(header + "\n1,2,3\n4,5,6\n7,8,9\n")
        rc = main(["fit", "--data", str(path), "--response", "a", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "but the body has 3" in capsys.readouterr().err


def test_report_val_measure_and_numact(fit_dir, tmp_path, capsys):
    rc = main(["report", "--model", str(fit_dir / "model.json"),
               "--plot-type", "val-measure", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "val_measure.csv").read_text().splitlines()
    assert lines[0] == "nu,measure,se" and len(lines) == 1 + 5
    ens = load_model(fit_dir / "model.json")
    best = ens.grid.best_cell()
    expect = sorted((c for c in ens.grid.cells if c.nummod == best.nummod),
                    key=lambda c: c.nu)
    assert [float(l.split(",")[1]) for l in lines[1:]] == [c.value for c in expect]

    rc = main(["report", "--model", str(fit_dir / "model.json"),
               "--plot-type", "val-numact", "--plot-along", "nummod",
               "--nu", repr(expect[2].nu), "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "val_numact.csv").read_text().splitlines()
    assert lines[0] == "nummod,active" and len(lines) == 1 + 2

    rc = main(["report", "--model", str(fit_dir / "model.json"),
               "--plot-type", "val-measure", "--nummod", "7",
               "--out", str(tmp_path)])
    assert rc == 2  # 7 is not on the nummods grid
    assert "--nummod=7 is not on the grid; grid has [2, 3]" in capsys.readouterr().err

    off = expect[2].nu * (1 + 1e-6)  # outside the rtol 1e-9 match
    rc = main(["report", "--model", str(fit_dir / "model.json"),
               "--plot-type", "val-measure", "--plot-along", "nummod",
               "--nu", repr(off), "--out", str(tmp_path / "off")])
    assert rc == 2
    assert (f"--nu={off} is not on the grid; grid has {sorted(c.nu for c in expect)}"
            in capsys.readouterr().err)


def test_report_holds_the_opt_par_pair(sim_dir, tmp_path):
    """The val plots hold the other axis where coef() picks it, --opt-par 1se included."""
    assert main(["cv", "--data", str(sim_dir / "train.csv"), "--nnu", "8", "--nummods", "2,4",
                 "--seed", "2", "--nfolds", "3", "--out", str(tmp_path / "cv")]) == 0
    model = str(tmp_path / "cv" / "model.json")
    ens = load_model(model)
    (nu, nummod), (best_nu, best_nummod) = ens.one_se, ens.best
    assert nu != best_nu and nummod != best_nummod
    for along, held in (("nu", lambda c: c.nummod == nummod), ("nummod", lambda c: c.nu == nu)):
        assert main(["report", "--model", model, "--plot-type", "val-measure", "--plot-along",
                     along, "--opt-par", "1se", "--out", str(tmp_path / along)]) == 0
        lines = (tmp_path / along / "val_measure.csv").read_text().splitlines()
        expect = sorted(filter(held, ens.grid.cells), key=lambda c: getattr(c, along))
        assert [float(l.split(",")[1]) for l in lines[1:]] == [c.value for c in expect]


def test_coef_refuses_nu_nan(fit_dir, tmp_path, capsys):
    rc = main(["coef", "--model", str(fit_dir / "model.json"), "--nu", "nan",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "nu must be a number >= 0, got nan" in capsys.readouterr().err
    assert not (tmp_path / "coef.json").exists()


@pytest.mark.parametrize("pick", [["--nu", "5"], ["--nummod", "99"], ["--opt-par", "1se"]])
def test_pair_flags_refused_where_nothing_reads_them(pick, fit_dir, sim_dir, tmp_path, capsys):
    """predict --coef-file and report --plot-type coefs use no pair: a pair flag there exits 2."""
    cdir = tmp_path / "coef"
    assert main(["coef", "--model", str(fit_dir / "model.json"), "--out", str(cdir)]) == 0
    runs = {
        "--coef-file": ["predict", "--coef-file", str(cdir / "coef.json"),
                        "--data", str(sim_dir / "test.csv"), "--response", "y"],
        "--plot-type coefs": ["report", "--model", str(fit_dir / "model.json"),
                              "--plot-type", "coefs"],
    }
    for path, argv in runs.items():
        out = tmp_path / path.split()[-1]
        assert main([*argv, *pick, "--out", str(out)]) == 2
        assert f"{path} reads no --nu, --nummod or --opt-par" in capsys.readouterr().err
        assert not out.exists()  # nothing written, no directory made


@pytest.mark.parametrize("sources", [("--model", "--coef-file"), ()])
def test_predict_needs_exactly_one_of_model_and_coef_file(sources, fit_dir, tmp_path, capsys):
    """Both sources (or neither) exit 2 before --data is read: the missing data file is not opened."""
    cdir = tmp_path / "coef"
    assert main(["coef", "--model", str(fit_dir / "model.json"), "--out", str(cdir)]) == 0
    files = {"--model": fit_dir / "model.json", "--coef-file": cdir / "coef.json"}
    out = tmp_path / "pred"
    argv = [a for flag in sources for a in (flag, str(files[flag]))]
    assert main(["predict", *argv, "--data", str(tmp_path / "missing.csv"), "--out", str(out)]) == 2
    assert "predict needs exactly one of --model and --coef-file" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_flags_are_the_synthetic_spec_fields():
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a.option_strings for a in sub.choices["simulate"]._actions}
    fields = {f.name for f in dataclasses.fields(SyntheticSpec)}
    assert set(flags) - {"help"} == fields | {"seed", "out"}
    assert flags["active_positions"] == ["--positions"]


@pytest.mark.parametrize("flags", [["--family", "gamma"], ["--positions", "middle"]])
def test_simulate_refuses_a_bad_family_or_position(flags, tmp_path, capsys):
    assert main(["simulate", *flags, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_fit_options_name_spec_fields_or_fit_parameters():
    fields = {name: {f.name for f in dataclasses.fields(cls)}
              for name, cls in (("screen", ScreenSpec), ("rp", RpSpec), ("model", ModelSpec))}
    params = set(inspect.signature(fit_spar).parameters)
    params |= set(inspect.signature(fit_spar_cv).parameters)
    for opt in _OPTIONS:
        spec, _, name = opt.target.rpartition(".")
        assert name in (fields[spec] if spec else params | {"response"}), opt


def test_report_coefs_prange(fit_dir, tmp_path):
    rc = main(["report", "--model", str(fit_dir / "model.json"),
               "--plot-type", "coefs", "--prange", "4,6", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "coefs.csv").read_text().splitlines()
    ens = load_model(fit_dir / "model.json")
    assert lines[0] == "predictor," + ",".join(
        f"m{k + 1}" for k in range(len(ens.models)))
    assert [int(l.split(",")[0]) for l in lines[1:]] == [4, 5, 6]
    row4 = np.array([float(v) for v in lines[1].split(",")[1:]])
    expect = -np.sort(-np.array([m.beta_vals[m.index_set == 3].sum() for m in ens.models]))
    assert np.array_equal(row4, expect)
    assert np.all(np.diff(row4) <= 0)


def test_report_res_vs_fitted(fit_dir, sim_dir, tmp_path):
    ds = load_csv(sim_dir / "train.csv", response="y")
    yfile = tmp_path / "yfit.csv"
    yfile.write_text("y\n" + "\n".join(repr(float(v)) for v in ds.y) + "\n")
    rc = main(["report", "--model", str(fit_dir / "model.json"),
               "--plot-type", "res-vs-fitted",
               "--xfit", str(sim_dir / "train.csv"), "--response", "y",
               "--yfit", str(yfile), "--out", str(tmp_path)])
    assert rc == 0
    arr = np.loadtxt(tmp_path / "res_vs_fitted.csv", delimiter=",", skiprows=1)
    ens = load_model(fit_dir / "model.json")
    fitted = ens.predict(ds.x)
    assert np.max(np.abs(arr[:, 0] - fitted)) < 1e-12
    assert np.max(np.abs(arr[:, 1] - (ds.y - fitted))) < 1e-12


def test_report_res_vs_fitted_refuses_a_wide_yfit(fit_dir, sim_dir, tmp_path, capsys):
    ds = load_csv(sim_dir / "train.csv", response="y")
    yfile = tmp_path / "yfit.csv"
    yfile.write_text("y,z\n" + "".join(f"{v!r},0.0\n" for v in ds.y.tolist()))
    out = tmp_path / "report"
    rc = main(["report", "--model", str(fit_dir / "model.json"),
               "--plot-type", "res-vs-fitted",
               "--xfit", str(sim_dir / "train.csv"), "--response", "y",
               "--yfit", str(yfile), "--out", str(out)])
    assert rc == 3
    assert "--yfit has 2 columns; it must have one" in capsys.readouterr().err
    assert not out.exists()


def test_threads_do_not_change_results(sim_dir, tmp_path):
    a = tmp_path / "t1"
    b = tmp_path / "t2"
    for out, threads in ((a, "1"), (b, "2")):
        rc = main(["fit", "--data", str(sim_dir / "train.csv"),
                   "--val-data", str(sim_dir / "test.csv"),
                   *FIT_FLAGS, "--threads", threads, "--out", str(out)])
        assert rc == 0
    assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    """README "Library quick start": its Python blocks run in order in one namespace, in a
    temporary directory, and print the selected pair."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for code in blocks:
        exec(compile(code, "README.md", "exec"), namespace)
    ens, coef, preds = namespace["ens"], namespace["coef"], namespace["preds"]
    assert capsys.readouterr().out == f"{ens.best}\n"
    assert coef.beta.shape == (2000,) and coef.active == np.count_nonzero(coef.beta)
    assert preds.shape == (200,) and np.all(np.isfinite(preds))


def test_readme_extending_section_runs(sim_dir, tmp_path, monkeypatch):
    """README "Extending": its Python blocks run in order in one namespace, and its launcher
    runs spar fit with the registered names on a simulated CSV, echoing them in model.json."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Extending\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```(python|sh)\n(.*?)```", section, re.S)
    files = [code.split("\n", 1)[0][2:] for lang, code in blocks
             if lang == "python" and re.match(r"# \w+\.py\n", code)]
    assert files == ["my_plugins.py", "spar_with_plugins.py"]
    for name in files:
        (tmp_path / name).write_text(next(code for _, code in blocks if code.startswith(f"# {name}")))
    monkeypatch.syspath_prepend(str(tmp_path))  # the launcher block imports my_plugins
    monkeypatch.delitem(sys.modules, "my_plugins", raising=False)
    namespace = {}
    for lang, code in blocks:
        if lang == "python":
            exec(compile(code, "README.md", "exec"), namespace)
    (command,) = (code for lang, code in blocks if lang == "sh")
    argv = shlex.split(command)
    assert argv[:2] == ["python", "spar_with_plugins.py"]
    shutil.copy(sim_dir / "train.csv", tmp_path / "train.csv")
    src = str(Path(spar.__file__).parents[1])
    res = subprocess.run([sys.executable, *argv[1:]], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    config = json.loads((tmp_path / "run" / "model.json").read_text())["config"]
    assert (config["screen"]["method"], config["rp"]["kind"]) == ("colsum", "wide-sparse")


def test_console_module_smoke(sim_dir, tmp_path):
    """One subprocess run to cover the installed entry path."""
    res = subprocess.run(
        [sys.executable, "-m", "spar.cli", "fit",
         "--data", str(sim_dir / "train.csv"), *FIT_FLAGS,
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert "best: nu=" in res.stdout
    assert (tmp_path / "model.json").exists()


_CSV_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1.7e308, -1.7e308]),
    st.integers(-(2**53), 2**53),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda w: st.lists(st.lists(_CSV_NUMBERS, min_size=w, max_size=w), min_size=1, max_size=8)))
def test_write_csv_reads_back_bit_for_bit(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    _write_csv(path, [f"c{j}" for j in range(len(rows[0]))], rows)
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert back.view(np.uint64).tolist() == np.array(rows, dtype=float).view(np.uint64).tolist()
