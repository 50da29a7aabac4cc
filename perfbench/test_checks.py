"""The benchmark's output checks accept the program's outputs and reject
wrong ones. Run from the repository root: python3 -m pytest perfbench -q"""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

import checks
from gravitas.cli import main
from gravitas.params import ModelParams
from gravitas.unitarity import unitarity_violation_scan


def _csv(path):
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


def _run(tmp_path, name, *argv):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def scan():
    b = checks.BOX
    params = ModelParams(g_newton=b["g_newton"], m=b["m"], mu=b["mu"],
                         alpha_tilde=b["alpha_tilde"])
    return unitarity_violation_scan(params, b["s_grid"], 200_000, 20260810)


def test_sidak_bound():
    assert checks.sidak_z(1, 0.05) == pytest.approx(1.959964, abs=1e-6)
    assert checks.sidak_z(10, 1e-6) == pytest.approx(5.3267, abs=1e-3)


def test_box_accepts_program_scan(scan):
    assert checks.check_box_scan(scan) == []


def test_box_rejects_elastic_only_rhs(scan):
    wrong = [replace(r, rhs_restored=r.rhs_elastic) for r in scan]
    assert len(checks.check_box_scan(wrong)) >= len(scan)


def test_box_rejects_rhs_scaled_by_1_01(scan):
    wrong = [replace(r, rhs_restored=1.01 * r.rhs_restored) for r in scan]
    assert len(checks.check_box_scan(wrong)) == len(scan)


def test_box_rejects_elastic_equal_to_annihilation(scan):
    wrong = [replace(r, rhs_elastic=r.rhs_restored) for r in scan]
    assert any("elastic-only" in f for f in checks.check_box_scan(wrong))


def test_entangle_accepts_program_and_rejects_spring_off_by_1pct(tmp_path):
    assert checks.check_entangle(_csv(_run(tmp_path, "e.csv", "entangle"))) == []
    # the transverse spring V'(d)/d is proportional to G: G * 1.01 is a 1 % spring error
    off = _run(tmp_path, "e2.csv", "entangle", "--g-newton", "10.1")
    assert checks.check_entangle(_csv(off))


def test_compare_accepts_program_and_rejects_spring_off_by_1pct(tmp_path):
    ok = _run(tmp_path, "c.csv", "compare", "--seed", "7", "--n-traj", "64")
    assert checks.check_compare(_csv(ok)) == []
    off = _csv(_run(tmp_path, "c2.csv", "compare", "--seed", "7", "--n-traj", "64",
                    "--g-newton", "10.1"))
    fails = checks.check_compare(off)
    assert any("mean_sep_unitary" in f for f in fails)
    assert any("mean_sep_semiclassical" in f for f in fails)


def test_semiclassical_rejects_entanglement(tmp_path):
    cols = _csv(_run(tmp_path, "s.csv", "semiclassical", "--seed", "7", "--n-traj", "64",
                     "--n-steps", "200", "--horizon", "2"))
    assert checks.check_semiclassical(cols, n_steps=200, n_traj=64) == []
    cols["E_N_unconditional"][5] = 1e-3
    cols["duan"][5] = 0.99
    assert len(checks.check_semiclassical(cols, n_steps=200, n_traj=64)) == 2


def test_deflection_rejects_quoted_source_value(tmp_path):
    doc = json.loads(_run(tmp_path, "d.json", "deflection").read_text())
    assert checks.check_deflection(doc) == []
    # the source's 7.4e-27 is G M/(c^2 b), without the Db/b factor
    assert checks.check_deflection(dict(doc, deflection_diff_rad=7.4e-27))


def test_optical_tree_rejects_rhs_scaled_by_1_01(tmp_path):
    doc = json.loads(_run(tmp_path, "o.json", "optical-tree").read_text())
    assert checks.check_optical_tree(doc) == []
    wrong = dict(doc, rhs_with_gravitons=1.01 * doc["rhs_with_gravitons"])
    assert checks.check_optical_tree(wrong)


def test_phase_space_rejects_shifted_side(tmp_path):
    doc = json.loads(_run(tmp_path, "p.json", "phase-space-check",
                          "--seed", "7").read_text())
    assert checks.check_phase_space(doc) == []
    res = doc["results"]["rational"]
    res["rhs"] += 10.0 * res["rhs_error"]
    assert len(checks.check_phase_space(doc)) == 1


def test_config_mismatch_is_reported():
    assert checks.check_config("x", {"mu": 1.0, "kmax": 6.0}, checks.PHASE_SPACE) == []
    assert checks.check_config("x", {"mu": 1.0, "kmax": 5.0}, checks.PHASE_SPACE)
