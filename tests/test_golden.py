"""Byte-for-byte comparison against the golden outputs in tests/golden/.

Every recipe is refit in a temporary directory, and every file it writes
(model.json, selection.csv, predictions.csv and coef.csv for the library
recipes; model.json, selection.csv, summary.txt and cv_folds.csv for the
`spar fit`/`spar cv` ones; coef.json and predictions from `spar coef` and
`spar predict` on a reloaded model for the load ones; the `spar report`
CSVs for the report one) must equal the committed file exactly.
tests/golden/regen.py rewrites the committed files.
"""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

_REGEN_PATH = Path(__file__).resolve().parent / "golden" / "regen.py"
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN_PATH)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("name", regen.ALL_RECIPES)
def test_golden_outputs_byte_identical(name, tmp_path):
    expected_dir = regen.GOLDEN_DIR / name
    regen.write(name, tmp_path)
    expected = sorted(p.name for p in expected_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for fname in expected:
        assert (tmp_path / fname).read_bytes() == (expected_dir / fname).read_bytes(), (
            f"{name}/{fname} differs from the golden file"
        )


def test_compare_reports_files_pairs_and_largest_change(tmp_path, monkeypatch, capsys):
    """regen.py --compare writes nothing, prints what a regeneration would change and exits 1
    when a best or one_se pair would move; it tells a last-bit move of a pair's nu, or of a number
    near 0, from a real one."""
    assert regen.largest_change("x1,0.5\n", "x1,0.5\n") == 0.0
    assert regen.largest_change("a,-2.0e-05,3", "a,-2.0000000000000003e-05,3") == (
        pytest.approx(1.7e-16, rel=0.05))
    assert regen.largest_change("nu,1.0", "mu,1.0") is None
    assert regen.largest_change("b1,0.0", "b1,-0.0") == 0.0
    # a last-bit change near 0: large relative to itself, small against the text's largest number
    assert regen.largest_change("g,4e-17,2.0", "g,5e-17,2.0") == pytest.approx(0.2)
    assert regen.largest_scaled_change("g,4e-17,2.0", "g,5e-17,2.0") == pytest.approx(5e-18)
    assert regen.largest_scaled_change("x1,0.5\n", "x1,0.5\n") == 0.0
    assert regen.largest_scaled_change("nu,1.0", "mu,1.0") is None
    name = "binomial-gaussian-validation"
    monkeypatch.setattr(regen, "GOLDEN_DIR", tmp_path)
    shutil.copytree(Path(_REGEN_PATH).parent / name, tmp_path / name)
    assert regen.compare(name) == f"{name}: identical"
    model, grid = tmp_path / name / "model.json", tmp_path / name / "selection.csv"
    text = model.read_text()
    model.write_text(json.dumps(json.loads(text), indent=1))  # another layout, the same values
    assert regen.compare(name) == (f"{name}: model.json differ; best/one_se unchanged; largest "
                                   "relative change 0.0e+00; largest change / largest number: "
                                   "model.json 0.0e+00")
    monkeypatch.setattr(regen, "ALL_RECIPES", (name,))
    assert regen.main(["--compare"]) == 0  # files differ, but no pair moved
    assert capsys.readouterr().out == (f"{name}: model.json differ; best/one_se unchanged; "
                                       "largest relative change 0.0e+00; largest change / "
                                       "largest number: model.json 0.0e+00\n")
    best = '"nu": 0.0956671065735086, "nummod": 4}, "one_se"'  # nu and nummod of the best pair
    model.write_text(text.replace(best, best.replace("0.0956671065735086", "0.09566710657350862")))
    assert regen.compare(name) == (  # the next float up: the pair moved in the last bit of nu only
        f"{name}: model.json differ; best/one_se MOVED (best: nummod and nu index unchanged, "
        "nu 1.5e-16 relative); largest relative change 1.5e-16; largest change / largest number: "
        "model.json 1.4e-19")
    assert regen.main(["--compare"]) == 1
    capsys.readouterr()
    model.write_text(text.replace('"nummod": 4}, "one_se"', '"nummod": 2}, "one_se"'))
    grid.write_text(grid.read_text().replace("25.78384417649826", "25.78384417649827"))
    before = {p: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert regen.compare(name) == (  # the stored nummod is 2, the rebuilt 4; numbers reach 100
        f"{name}: model.json, selection.csv differ; best/one_se MOVED (best: nummod 2 -> 4, "
        "nu index 2 -> 2, nu 0.0e+00 relative); largest relative change 5.0e-01; largest change "
        "/ largest number: model.json 2.0e-02, selection.csv 2.5e-16")
    assert {p: p.read_bytes() for p in (tmp_path / name).iterdir()} == before
    assert regen.main(["--compare"]) == 1  # a moved pair fails the run
    assert capsys.readouterr().out.startswith(f"{name}: model.json, selection.csv differ;")
    assert {p: p.read_bytes() for p in (tmp_path / name).iterdir()} == before
