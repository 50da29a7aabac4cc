import argparse
import csv
import json
import math
import os

import pytest

from gravitas import unitarity
from gravitas.cli import build_parser, main

SEED = ["--seed", "20260810"]


def _read_manifest(path):
    return json.loads(path.with_suffix(path.suffix + ".manifest.json")
                      .read_text(encoding="utf-8"))


def test_missing_seed_is_config_error(tmp_path, monkeypatch):
    monkeypatch.delenv("GRAVITAS_SEED", raising=False)
    out = tmp_path / "bc.csv"
    assert main(["box-cut", "--out", str(out), "--n-samples", "1000"]) == 2


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("GRAVITAS_SEED", "123")
    out = tmp_path / "bc.csv"
    code = main(["box-cut", "--out", str(out), "--n-samples", "50000",
                 "--s-grid", "4.1"])
    assert code in (0, 1)  # statistical gate; seed accepted either way
    assert out.exists()


def test_bad_env_seed_rejected(tmp_path, monkeypatch):
    monkeypatch.setenv("GRAVITAS_SEED", "not-a-number")
    assert main(["box-cut", "--out", str(tmp_path / "x.csv")]) == 2


def test_missing_config_file_rejected(tmp_path):
    assert main(["optical-tree", "--config", str(tmp_path / "nope.json")]) == 2


def test_optical_tree_default(tmp_path):
    out = tmp_path / "ot.json"
    assert main(["optical-tree", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert abs(doc["ratio_restored"] - 1.0) <= 0.01
    assert "undefined" in doc["ratio_elastic_only"]
    man = _read_manifest(out)
    assert man["outputs"] == [out.name]
    assert man["checks"]["ratio_restored_within_tolerance"] is True
    assert man["resolved_config"]["mu"] == 0.05


def test_optical_tree_unachievable_tolerance(tmp_path, capsys):
    out = tmp_path / "ot.json"
    assert main(["optical-tree", "--out", str(out), "--tolerance", "1e-9"]) == 1
    assert "outside" in capsys.readouterr().err


def test_box_cut_csv_schema_and_flags(tmp_path):
    out = tmp_path / "bc.csv"
    code = main(["box-cut", "--out", str(out), "--n-samples", "50000",
                 "--s-grid", "3.5", "4.1", *SEED])
    assert code in (0, 1)
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["s"] for r in rows] == ["3.5", "4.1"]
    assert rows[0]["flag"] == "below-threshold"
    assert rows[0]["ratio_restored"] == ""
    header = list(rows[0].keys())
    assert header == ["s", "im_box", "mc_err", "rhs_annih", "mc_err_annih",
                      "rhs_elastic", "ratio_restored", "ratio_elastic", "flag"]


def test_entangle_zero_horizon(tmp_path):
    out = tmp_path / "en.csv"
    assert main(["entangle", "--out", str(out), "--delta-t", "0",
                 "--n-grid", "1"]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["duan"]) >= 1.0 - 1e-12 for r in rows)


def test_entangle_default_schema(tmp_path):
    out = tmp_path / "en.csv"
    assert main(["entangle", "--out", str(out), "--n-grid", "50"]) == 0
    with out.open() as fh:
        header = next(csv.reader(fh))
    assert header == ["t", "duan", "E_N", "var_xminus", "var_pplus"]


def test_semiclassical_schema_and_checks(tmp_path):
    out = tmp_path / "sc.csv"
    assert main(["semiclassical", "--out", str(out), "--n-steps", "200",
                 "--horizon", "2", "--n-traj", "64", *SEED]) == 0
    with out.open() as fh:
        header = next(csv.reader(fh))
    assert header == ["t", "E_N_unconditional", "duan", "var_p_mean", "n_traj"]
    man = _read_manifest(out)
    assert man["checks"]["no_entanglement"] is True
    assert man["checks"]["duan_never_below_1"] is True


def test_compare_records_channel_discrimination(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--out", str(out), "--n-steps", "800",
                 "--horizon", "12", "--n-traj", "64", *SEED]) == 0
    man = _read_manifest(out)
    assert man["checks"]["unitary_entangles"] is True
    assert man["checks"]["semiclassical_does_not"] is True


def test_deflection_record(tmp_path):
    out = tmp_path / "d.json"
    assert main(["deflection", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["deflection_diff_rad"] == pytest.approx(7.43e-28, rel=0.01)
    assert doc["photon_energy_ev"] == pytest.approx(1.24, rel=0.01)


def test_phase_space_check(tmp_path):
    out = tmp_path / "ps.json"
    assert main(["phase-space-check", "--out", str(out), "--n-samples",
                 "150000", *SEED]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc["results"]) == {"gaussian", "shell-indicator", "rational"}


def test_self_test_determinism(tmp_path):
    out = tmp_path / "st.json"
    assert main(["self-test", "--out", str(out), "--threads", "3",
                 "--n-samples", "20000", *SEED]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["rerun_identical"] is True
    assert doc["thread_count_invariant"] is True


def test_config_file_precedence(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"optical-tree": {"mu": 0.03,
                                                    "out": str(tmp_path / "a.json")}}),
                       encoding="utf-8")
    # file value used when no flag
    assert main(["optical-tree", "--config", str(cfgfile)]) == 0
    man = _read_manifest(tmp_path / "a.json")
    assert man["resolved_config"]["mu"] == 0.03
    # flag overrides file
    out2 = tmp_path / "b.json"
    assert main(["optical-tree", "--config", str(cfgfile), "--mu", "0.08",
                 "--out", str(out2)]) == 0
    assert _read_manifest(out2)["resolved_config"]["mu"] == 0.08


def test_outputs_are_bit_identical_across_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["box-cut", "--out", str(out), "--n-samples", "20000",
                     "--s-grid", "4.1", "6.0", *SEED]) in (0, 1)
    assert a.read_bytes() == b.read_bytes()


def test_help_lists_units():
    with pytest.raises(SystemExit) as exc:
        main(["box-cut", "--help"])
    assert exc.value.code == 0


# flags that a subcommand used to accept without reading them
UNREAD_FLAGS = [
    ("optical-tree", "--alpha-tilde"),
    ("box-cut", "--g-newton"),
    ("box-cut", "--lambda"),
    *[(cmd, flag) for cmd in ("entangle", "semiclassical", "compare")
      for flag in ("--lambda", "--alpha-tilde")],
    ("phase-space-check", "--sigma-tolerance"),
]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_unread_flag_rejected(tmp_path, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "2", "--out", str(tmp_path / "x.out")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_entangle_m_is_the_mass_of_both_bodies(tmp_path):
    var_xminus = {}
    for m in ("1", "2"):
        out = tmp_path / f"m{m}.csv"
        assert main(["entangle", "--n-grid", "10", "--m", m, "--out", str(out)]) == 0
        with out.open() as fh:
            var_xminus[m] = [float(r["var_xminus"]) for r in csv.DictReader(fh)]
        assert _read_manifest(out)["resolved_config"]["m"] == float(m)
    assert var_xminus["1"][0] == var_xminus["2"][0]  # same initial state
    assert var_xminus["1"][1:] != var_xminus["2"][1:]


BAD_VALUES = {
    "box-cut-zero-samples": ["box-cut", "--n-samples", "0", *SEED],
    "semiclassical-zero-steps": ["semiclassical", "--n-steps", "0", *SEED],
    "entangle-negative-variance": ["entangle", "--var-x", "-1"],
    "phase-space-zero-samples": ["phase-space-check", "--n-samples", "0", *SEED],
    "semiclassical-zero-trajectories": ["semiclassical", "--n-traj", "0", *SEED],
    "box-cut-negative-threads": ["box-cut", "--threads", "-3", *SEED],
    "self-test-zero-threads": ["self-test", "--threads", "0", *SEED],
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_value_exits_2_without_output(tmp_path, case):
    assert main([*BAD_VALUES[case], "--out", str(tmp_path / "x.out")]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [0, "many"])
def test_bad_config_file_value_exits_2(tmp_path, value):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"box-cut": {"n_samples": value}}),
                       encoding="utf-8")
    out = tmp_path / "bc.csv"
    assert main(["box-cut", "--config", str(cfgfile), "--out", str(out), *SEED]) == 2
    assert not out.exists()


def test_odd_n_traj_recorded_as_run(tmp_path):
    out = tmp_path / "sc.csv"
    assert main(["semiclassical", "--n-traj", "7", "--n-steps", "20",
                 "--horizon", "2", "--out", str(out), *SEED]) == 0
    assert _read_manifest(out)["resolved_config"]["n_traj"] == 8
    with out.open() as fh:
        assert {r["n_traj"] for r in csv.DictReader(fh)} == {"8"}


@pytest.mark.parametrize("seed", [1, 13, 16, 17, 21])
def test_box_cut_gate_passes_correct_runs(tmp_path, seed):
    # each of these seeds has a restored ratio 2.07-2.18 sigma from 1
    out = tmp_path / "bc.csv"
    assert main(["box-cut", "--seed", str(seed), "--n-samples", "100000",
                 "--out", str(out)]) == 0
    assert _read_manifest(out)["checks"] == {"restored_ratios_within_sidak_z": True}


def test_box_cut_gate_rejects_rhs_off_by_one_percent(tmp_path, monkeypatch):
    real = unitarity.annihilation_rhs

    def scaled(*args, **kwargs):
        value, err = real(*args, **kwargs)
        return 1.01 * value, 1.01 * err

    monkeypatch.setattr(unitarity, "annihilation_rhs", scaled)
    out = tmp_path / "bc.csv"
    assert main(["box-cut", "--s-grid", "4.1", "--out", str(out), *SEED]) == 1
    assert _read_manifest(out)["checks"] == {"restored_ratios_within_sidak_z": False}


def test_phase_space_gate_passes_correct_run(tmp_path):
    # seed 38 has a worst discrepancy of 3.39 sigma, below z(3) = 3.59
    out = tmp_path / "ps.json"
    assert main(["phase-space-check", "--seed", "38", "--out", str(out)]) == 0


def test_self_test_default_compares_two_threads(tmp_path):
    out = tmp_path / "st.json"
    assert main(["self-test", "--out", str(out), *SEED]) == 0
    assert _read_manifest(out)["resolved_config"]["threads"] == 2
    assert json.loads(out.read_text(encoding="utf-8"))["thread_count_invariant"] is True


def test_every_option_has_help():
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        for action in parser._actions:
            if action.option_strings != ["-h", "--help"]:
                assert action.help, (name, action.option_strings)
