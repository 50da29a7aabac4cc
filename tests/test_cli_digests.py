"""Frozen sha256 digests of every subcommand's data file.

A refactor of the command-line layer must reproduce these bytes exactly.
Manifests are not digested because they carry the wall time. The digests
depend on the floating-point results of numpy, the only library the
package runs on, so a change of numpy (not of gravitas) may legitimately
move them.
"""

import hashlib

import pytest

from gravitas.cli import main

STOCHASTIC_ENSEMBLE = ["--seed", "7", "--n-traj", "16", "--n-steps", "100",
                       "--horizon", "2"]

RUNS = {
    "optical-tree": (
        ["optical-tree"],
        "3e328a0724d9074ec5b30b01f36a4805bb2ca46ff9f2363bd78cee7f72d213f4"),
    "deflection": (
        ["deflection"],
        "a718726c3b2002bd566edc4dc599dba202e33ad73f8511fdfba0c94de0cd1329"),
    "box-cut": (
        ["box-cut", "--seed", "7", "--n-samples", "20000",
         "--s-grid", "3.5", "4.1", "6"],
        "95b8201da5d5e695db80ad6985eb2df2a10f87600391cd8b74a78124a8f47a15"),
    "entangle-transverse": (
        ["entangle", "--n-grid", "40", "--axis", "transverse"],
        "2b9b975a63c2b5a1a7b8edbd5bcbf6e97f81740d14d2be53f235356935b2f739"),
    "entangle-separation": (
        ["entangle", "--n-grid", "40", "--axis", "separation"],
        "e4edaa22b248f35ea9c7c1ce8ec2ff4bc792574069f664ac413e1826f075e37c"),
    "semiclassical": (
        ["semiclassical", *STOCHASTIC_ENSEMBLE],
        "e00960ac6fb3a3596b6e6b749e5d4423fcc8eda164bf20a04828e06763411331"),
    "compare": (
        ["compare", *STOCHASTIC_ENSEMBLE],
        "5c2d860d5ca16da3cfb44b25060cfe96682999d11681538fbea901f8403718a5"),
    "phase-space-check": (
        ["phase-space-check", "--seed", "7", "--n-samples", "20000"],
        "2d6adbaa50aa35bc98f3e920c82253959bd7cc2b76cfb5265802642e5be54f06"),
    "self-test": (
        ["self-test", "--seed", "7", "--n-samples", "5000"],
        "cf118bf3866dd6c7d3cd95cc4c46be1de268152242e5c214e59357519dbff28e"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_data_file_digest(name, tmp_path):
    argv, digest = RUNS[name]
    out = tmp_path / "data.out"
    main([*argv, "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
