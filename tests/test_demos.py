import glob
import os
import runpy
import warnings

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "demos", "0*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_runs_to_completion(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out
