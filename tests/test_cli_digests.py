"""Frozen sha256 digests of every subcommand's data file.

A refactor of the command-line layer must reproduce these bytes exactly.
Manifests are not digested because they carry the wall time. The digests
depend on the floating-point results of numpy, the only library the
package runs on, and of the C math library behind Python's ``math``
module, which ``optical-tree`` and ``deflection`` run on; so a change of
either (not of gravitas) may legitimately move them.
"""

import hashlib

import pytest

from gravitas.cli import main

STOCHASTIC_ENSEMBLE = ["--seed", "7", "--n-traj", "16", "--n-steps", "100",
                       "--horizon", "2"]

RUNS = {
    "optical-tree": (
        ["optical-tree"],
        "e44ec5324734e1dc84e73e2f99a28e3c1ef9ec72921ad4bc5417b6876af7ea5a"),
    "deflection": (
        ["deflection"],
        "a718726c3b2002bd566edc4dc599dba202e33ad73f8511fdfba0c94de0cd1329"),
    "box-cut": (
        ["box-cut", "--seed", "7", "--n-samples", "20000",
         "--s-grid", "3.5", "4.1", "6"],
        "a649ff2bc988725f32e999fec9e986cede34346893ed88c9b291ccdf0916a739"),
    "entangle-transverse": (
        ["entangle", "--n-grid", "40", "--axis", "transverse"],
        "2b9b975a63c2b5a1a7b8edbd5bcbf6e97f81740d14d2be53f235356935b2f739"),
    "entangle-separation": (
        ["entangle", "--n-grid", "40", "--axis", "separation"],
        "e4edaa22b248f35ea9c7c1ce8ec2ff4bc792574069f664ac413e1826f075e37c"),
    "semiclassical": (
        ["semiclassical", *STOCHASTIC_ENSEMBLE],
        "81459ba517d32781ed8017db5ef6cb15a0974be15c519cb4d201042e805efac3"),
    "compare": (
        ["compare", *STOCHASTIC_ENSEMBLE],
        "34fd644abcab7683d2d162e3dc1b852063ff898ff0086f47f6c248df227fe2de"),
    "phase-space-check": (
        ["phase-space-check", "--seed", "7", "--n-samples", "20000"],
        "c7ae98c198efed15ca5999c3cbe5cf7640a68198141b9e38cee60bd15230552c"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_data_file_digest(name, tmp_path):
    argv, digest = RUNS[name]
    out = tmp_path / "data.out"
    main([*argv, "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
