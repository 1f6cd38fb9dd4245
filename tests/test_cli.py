"""End-to-end command line tests; main() is exercised in process."""

import json
import subprocess
import sys

import numpy as np
import pytest

from spar.api import fit_spar
from spar.cli import main
from spar.data import load_csv, load_model, save_csv, serialize_model
from spar.ensemble import linkinv_eval
from spar.errors import NumericError


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


def test_report_val_measure_and_numact(fit_dir, tmp_path):
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
    expect = -np.sort(-ens.coef_matrix()[3])
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


def test_threads_do_not_change_results(sim_dir, tmp_path):
    a = tmp_path / "t1"
    b = tmp_path / "t2"
    for out, threads in ((a, "1"), (b, "2")):
        rc = main(["fit", "--data", str(sim_dir / "train.csv"),
                   "--val-data", str(sim_dir / "test.csv"),
                   *FIT_FLAGS, "--threads", threads, "--out", str(out)])
        assert rc == 0
    assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()


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
