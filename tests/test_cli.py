import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gravitas
from gravitas import entanglement, unitarity
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
    assert "ratio_elastic_only" not in doc and "rhs_elastic" not in doc
    assert len(doc["lhs_quadrature_error"]) == len(doc["eps_ladder"])
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
    "box-cut-one-sample-per-stratum": ["box-cut", "--n-samples", "64",
                                       "--s-grid", "4.1", "10", *SEED],
    "self-test-one-sample-per-stratum": ["self-test", "--n-samples", "64", *SEED],
    "semiclassical-zero-steps": ["semiclassical", "--n-steps", "0", *SEED],
    "entangle-negative-variance": ["entangle", "--var-x", "-1"],
    "phase-space-zero-samples": ["phase-space-check", "--n-samples", "0", *SEED],
    "semiclassical-zero-trajectories": ["semiclassical", "--n-traj", "0", *SEED],
    "box-cut-negative-threads": ["box-cut", "--threads", "-3", *SEED],
    "self-test-zero-threads": ["self-test", "--threads", "0", *SEED],
    "entangle-negative-delta-t": ["entangle", "--delta-t", "-30"],
    # nan and +/-inf pass every bound (nan <= 0 is False) unless rejected
    "deflection-nan-mass": ["deflection", "--mass-g", "nan"],
    "box-cut-nan-tolerance": ["box-cut", "--tolerance", "nan", *SEED],
    "box-cut-minus-inf-alpha-tilde": ["box-cut", "--alpha-tilde=-inf", *SEED],
    "entangle-inf-separation": ["entangle", "--d", "inf"],
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_value_exits_2_without_output(tmp_path, case):
    assert main([*BAD_VALUES[case], "--out", str(tmp_path / "x.out")]) == 2
    assert list(tmp_path.iterdir()) == []


def test_out_into_missing_directory_exits_2_before_running(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("computed before the output path was checked")

    monkeypatch.setattr("gravitas.cli.estimate_record", never)
    out = tmp_path / "missing_dir" / "x.json"
    assert main(["deflection", "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, value", [
    pytest.param("n_samples", 0, id="0"),
    pytest.param("n_samples", "many", id="many"),
    # json.dumps writes NaN, Infinity and -Infinity, which json.loads reads back
    pytest.param("n_samples", math.inf, id="n_samples-Infinity"),
    pytest.param("tolerance", math.nan, id="tolerance-NaN"),
    pytest.param("alpha_tilde", -math.inf, id="alpha_tilde--Infinity"),
    pytest.param("s_grid", [4.1, math.nan], id="s_grid-NaN-entry"),
])
def test_bad_config_file_value_exits_2(tmp_path, capsys, key, value):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"box-cut": {key: value}}), encoding="utf-8")
    out = tmp_path / "bc.csv"
    assert main(["box-cut", "--config", str(cfgfile), "--out", str(out), *SEED]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


def test_odd_n_traj_recorded_as_run(tmp_path):
    out = tmp_path / "sc.csv"
    assert main(["semiclassical", "--n-traj", "7", "--n-steps", "20",
                 "--horizon", "2", "--out", str(out), *SEED]) == 0
    assert _read_manifest(out)["resolved_config"]["n_traj"] == 8
    with out.open() as fh:
        assert {r["n_traj"] for r in csv.DictReader(fh)} == {"8"}


@pytest.mark.parametrize("seed", [1, 13, 16, 17, 21])
def test_box_cut_gate_passes_correct_runs(tmp_path, seed):
    # the restored ratio farthest from 1 is 1.80, 2.07, 1.89, 1.45 and 1.75
    # sigma from it for these seeds, against a bound of z(5) = 3.72
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


def test_box_cut_gate_rejects_elastic_only_rhs(tmp_path, monkeypatch):
    # at mu/m = 1e-3 the elastic-only sum is 1e6 to 1e7 times the annihilation sum
    def elastic(s, params, n_samples, rng, **kwargs):
        return unitarity.elastic_only_rhs(s, params), 0.0

    monkeypatch.setattr(unitarity, "annihilation_rhs", elastic)
    out = tmp_path / "bc.csv"
    assert main(["box-cut", "--out", str(out), *SEED]) == 1
    assert _read_manifest(out)["checks"] == {"restored_ratios_within_sidak_z": False}


@pytest.mark.parametrize("flag", [["--m", "2"], ["--alpha-tilde", "0"]],
                         ids=["every-point-below-threshold", "every-ratio-undefined"])
def test_box_cut_gate_fails_when_no_point_is_gated(tmp_path, capsys, flag):
    # s is absolute: at m = 2 both points sit below 4 m^2 = 16; at alpha~ = 0
    # both sides vanish and no ratio is defined
    out = tmp_path / "bc.csv"
    assert main(["box-cut", *flag, "--seed", "1", "--n-samples", "128",
                 "--s-grid", "4.1", "6", "--out", str(out)]) == 1
    assert "no point was gated" in capsys.readouterr().err
    assert _read_manifest(out)["checks"] == {"restored_ratios_within_sidak_z": False}


@pytest.mark.parametrize("ladder, says", [
    (["1e-5"], "at least two entries"),
    (["0.05", "0.01"], "must be below 0.000245129"),
    (["1e-4", "1e-4"], "all distinct"),
])
def test_optical_tree_bad_ladder_exits_2_naming_the_flag(tmp_path, capsys,
                                                         ladder, says):
    out = tmp_path / "ot.json"
    assert main(["optical-tree", "--eps-ladder", *ladder, "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert "--eps-ladder" in err and says in err and "Traceback" not in err


def test_phase_space_gate_passes_correct_run(tmp_path):
    # seed 38 has a worst discrepancy of 3.39 sigma, below z(3) = 3.59
    out = tmp_path / "ps.json"
    assert main(["phase-space-check", "--seed", "38", "--out", str(out)]) == 0


def test_self_test_default_compares_two_threads(tmp_path):
    out = tmp_path / "st.json"
    assert main(["self-test", "--out", str(out), *SEED]) == 0
    assert _read_manifest(out)["resolved_config"]["threads"] == 2
    assert json.loads(out.read_text(encoding="utf-8"))["thread_count_invariant"] is True


def test_numerical_check_failure_exits_1_without_traceback(tmp_path, monkeypatch,
                                                            capsys):
    monkeypatch.setattr(entanglement, "TOL_SYMPLECTIC", -1.0)
    out = tmp_path / "e.csv"
    assert main(["entangle", "--n-grid", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "symplectic" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


# inputs whose arithmetic overflows or divides by zero part-way through a run;
# at alpha~ = 1e76 only a Python float overflows, to -inf without raising, in
# the scan's worker threads too, so only the check on the output data stops it
BOX_CUT_INF = ["box-cut", "--alpha-tilde", "1e76", "--seed", "1", "--n-samples",
               "128", "--s-grid", "4.1", "6"]
ARITHMETIC_FAILURES = {
    "box-cut-huge-coupling": ["box-cut", "--alpha-tilde", "1e100", "--n-samples",
                              "128", "--s-grid", "4.1", *SEED],
    "box-cut-inf-output-1-thread": [*BOX_CUT_INF, "--threads", "1"],
    "box-cut-inf-output-2-threads": [*BOX_CUT_INF, "--threads", "2"],
    "phase-space-huge-mass": ["phase-space-check", "--mu", "1e200",
                              "--n-samples", "100", *SEED],
    "deflection-subnormal-mass": ["deflection", "--mass-g", "1e-320"],
    "entangle-tiny-separation": ["entangle", "--d", "1e-300"],
    "entangle-huge-coupling": ["entangle", "--g-newton", "1e300", "--n-grid", "2"],
    "semiclassical-huge-coupling": ["semiclassical", "--g-newton", "1e300",
                                    "--n-traj", "2", "--n-steps", "20",
                                    "--horizon", "2", *SEED],
    "optical-tree-huge-coupling": ["optical-tree", "--g-newton", "1e308"],
}


@pytest.mark.parametrize("case", sorted(ARITHMETIC_FAILURES))
def test_arithmetic_failure_exits_1_without_traceback(tmp_path, capsys, case):
    out = tmp_path / "x.out"
    assert main([*ARITHMETIC_FAILURES[case], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_import_loads_no_scipy():
    src = str(Path(gravitas.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, gravitas.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "[]"


# every settable value of each subcommand, --config included: adding or
# removing a flag means editing this table
SETTABLE = {
    "optical-tree": "--config --g-newton --m --mu --lambda --eps-ladder "
                    "--tolerance --out",
    "box-cut": "--config --m --mu --alpha-tilde --s-grid --n-samples "
               "--tolerance --threads --out --seed",
    "entangle": "--config --g-newton --m --mu --d --var-x --delta-t --n-grid "
                "--axis --out",
    "semiclassical": "--config --g-newton --m --mu --d --var-x --gamma "
                     "--horizon --n-steps --n-traj --axis --out --seed",
    "compare": "--config --g-newton --m --mu --d --var-x --gamma --horizon "
               "--n-steps --n-traj --out --seed",
    "deflection": "--config --mass-g --impact-um --separation-um "
                  "--wavelength-nm --cavity-m --target-time-s "
                  "--t-integration-s --out",
    "phase-space-check": "--config --mu --n-samples --kmax --out --seed",
    "self-test": "--config --n-samples --threads --out --seed",
}


def test_settable_values_per_subcommand():
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(opt for action in parser._actions
                        for opt in action.option_strings
                        if opt not in ("-h", "--help"))
           for name, parser in sub.choices.items()}
    assert got == {name: sorted(flags.split()) for name, flags in SETTABLE.items()}
    assert sum(len(flags) for flags in got.values()) == 73


def test_every_option_has_help():
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        for action in parser._actions:
            if action.option_strings != ["-h", "--help"]:
                assert action.help, (name, action.option_strings)
