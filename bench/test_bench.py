"""Tests of the benchmark itself: python -m pytest bench"""

import json
import os
import sys

import numpy as np
import pytest

import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def recorder():
    rec = spans.Recorder("test")
    patches, missing = spans.install(rec)
    try:
        yield rec, missing
    finally:
        spans.uninstall(patches)


def test_install_patches_every_import_site(recorder):
    _, missing = recorder
    assert missing == []
    import llbopt.config
    import llbopt.llb
    from llbopt.config import RunConfig

    originals = set()
    for span, (mod, attr) in spans.TARGETS.items():
        owner = sys.modules[mod]
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        originals.add(getattr(owner, attr).__wrapped__)
    originals.add(llbopt.llb.cg_implicit_solve.__wrapped__)
    for module in spans._package_modules():
        for name, value in vars(module).items():
            assert not any(value is o for o in originals), f"{module.__name__}.{name}"
    assert llbopt.config.simulate is llbopt.llb.simulate
    assert hasattr(llbopt.config.simulate, "__wrapped__")
    assert hasattr(RunConfig.build_targets, "__wrapped__")


def test_uninstall_restores_originals():
    import llbopt.llb
    import llbopt.tangent

    before = llbopt.tangent.cg_implicit_solve
    patches, _ = spans.install(spans.Recorder("test"))
    assert llbopt.tangent.cg_implicit_solve is not before
    spans.uninstall(patches)
    assert llbopt.tangent.cg_implicit_solve is before
    assert llbopt.llb.cg_implicit_solve is before


def _tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(workloads.STOCK1D.replace("time.T = 0.08", "time.T = 0.005")
                    .replace("grid.cells = 16", "grid.cells = 8"))
    return str(path)


def _set_up(config):
    from llbopt.config import parse_config
    from llbopt.llb import simulate

    cfg = parse_config(config)
    grid, sim = cfg.build_grid(), cfg.build_sim()
    coils = cfg.build_coils(grid)
    cfg.build_targets(grid, coils, sim)
    simulate(cfg.build_initial(grid), cfg.build_control(sim.n_steps, coils.n_coils),
             coils, sim)
    return sim.n_steps


def _doc(rec, missing):
    return {"names": rec.names, "starts": rec.starts, "ends": rec.ends,
            "parents": rec.parents, "missing": missing}


def test_sweeps_through_every_site_are_counted(recorder, tmp_path):
    rec, missing = recorder
    steps = _set_up(_tiny_config(tmp_path))
    doc = _doc(rec, missing)
    summary = spans.summarize(doc)
    assert summary["llb.simulate"]["calls"] == 2
    assert spans.nested_count(doc, "llb.simulate", "config.build_targets") == 1
    assert summary[spans.SOLVE_SPAN]["calls"] == 2 * steps
    assert run.sweep_check(doc, steps) == []


def test_missed_import_site_fails_the_sweep_check(tmp_path):
    rec = spans.Recorder("test")
    patches, missing = spans.install(rec, skip_modules=("llbopt.config",))
    try:
        steps = _set_up(_tiny_config(tmp_path))
    finally:
        spans.uninstall(patches)
    problems = run.sweep_check(_doc(rec, missing), steps)
    assert len(problems) == 1 and "self-check failed" in problems[0]


def test_solver_without_a_public_name_skips_the_sweep_check(monkeypatch, tmp_path):
    # as if the sweeps no longer call a public llb.*implicit_solve
    monkeypatch.setattr(spans, "SOLVE_SUFFIX", "no_such_solve")
    rec = spans.Recorder("test")
    patches, missing = spans.install(rec)
    try:
        steps = _set_up(_tiny_config(tmp_path))
    finally:
        spans.uninstall(patches)
    assert missing == [spans.SOLVE_SPAN]
    doc = dict(_doc(rec, missing), op="simulate", wall_s=1.0, bytes_written=0)
    assert run.sweep_check(doc, steps) == []
    bench_run = run.Run("simulate-2d", 0, 1, traced=True)
    m = bench_run.layer_metrics([doc], str(tmp_path), 1.0)
    assert m["trace.missing_targets"] == 1
    assert m["cli.simulate.forward_sweeps"] == 2
    assert m["cli.simulate.implicit_solves"] == 0


def test_self_time_subtracts_merged_children_clipped_to_parent():
    # 0 spans [0, 10]; children 1 [1, 3] and 2 [2, 5] overlap, 3 [9, 12]
    # runs past the parent; 4 [3, 4] is a grandchild under child 2
    starts = [0.0, 1.0, 2.0, 9.0, 3.0]
    ends = [10.0, 3.0, 5.0, 12.0, 4.0]
    parents = [-1, 0, 0, 0, 2]
    selfs = spans.self_times(starts, ends, parents)
    assert selfs == pytest.approx([10 - 4 - 1, 2, 3 - 1, 3, 1])


def test_summarize_counts_inclusive_time_of_outermost_calls_only():
    doc = {"names": ["a", "b", "a"], "starts": [0.0, 1.0, 2.0],
           "ends": [10.0, 5.0, 3.0], "parents": [-1, 0, 1]}
    summary = spans.summarize(doc)
    assert summary["a"] == {"calls": 2, "s": pytest.approx(10.0),
                            "self_s": pytest.approx(6.0 + 1.0)}
    assert summary["b"]["s"] == pytest.approx(4.0)
    assert summary["b"]["self_s"] == pytest.approx(3.0)
    assert spans.nested_count(doc, "a", "b") == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_config(name, tmp_path):
    from llbopt.config import parse_config

    w = workloads.WORKLOADS[name]
    for seed in (0, 1, 12345):
        v = workloads.variant_of(seed)
        assert v == workloads.variant_of(seed)
        text = workloads.config_text(w, v)
        assert text == workloads.config_text(w, v)
        path = tmp_path / f"{seed}.cfg"
        path.write_text(text)
        cfg = parse_config(str(path))
        assert cfg["grid.cells"] == [w.cells] * w.dim
        assert round(cfg["time.T"] / cfg["time.dt"]) == w.steps
    texts = {workloads.config_text(w, v) for v in range(workloads.N_VARIANTS)}
    assert len(texts) == workloads.N_VARIANTS


def test_every_variant_has_references():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    for name, w in workloads.WORKLOADS.items():
        assert sorted(ref[name]) == sorted(str(v) for v in range(workloads.N_VARIANTS))
        for per_op in ref[name].values():
            assert sorted(per_op) == sorted(w.ops)


def test_quartiles():
    q = run.quartiles([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (q["median"], q["n"]) == (3.0, 5)
    assert q["q1"] <= q["median"] <= q["q3"]
    assert run.quartiles([2.0])["median"] == 2.0


def test_check_outputs_flags_a_wrong_scalar(tmp_path):
    w = workloads.WORKLOADS["gradient-3d"]
    out = tmp_path / "check-grad"
    out.mkdir()
    (out / "checkgrad.csv").write_text("eps,fd_slope,adjoint_slope,rel_err\n"
                                       "0.0001,0.5,0.5000001,2e-07\n")
    ok = {"fd_slope": 0.5, "adjoint_slope": 0.5000001}
    assert workloads.check_outputs(w, "check-grad", str(out), ok) == []
    bad = dict(ok, fd_slope=0.5 * (1 + 1e-4))
    assert len(workloads.check_outputs(w, "check-grad", str(out), bad)) == 1
    assert np.isfinite(workloads.key_scalars("check-grad", str(out))["fd_slope"])
