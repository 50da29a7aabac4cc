"""Frozen sha256 digests of every subcommand's data file.

A refactor of the command-line layer must reproduce these bytes exactly.
Manifests are not digested because they carry the wall time. The digests
depend on the floating-point results of numpy/scipy, so a change of those
libraries (not of gravitas) may legitimately move them.
"""

import hashlib

import pytest

from gravitas.cli import main

STOCHASTIC_ENSEMBLE = ["--seed", "7", "--n-traj", "16", "--n-steps", "100",
                       "--horizon", "2"]

RUNS = {
    "optical-tree": (
        ["optical-tree"],
        "4d5823d7bd5c635d7f5814530a483a49dc05a47bb549b885067494eb88a48201"),
    "deflection": (
        ["deflection"],
        "a718726c3b2002bd566edc4dc599dba202e33ad73f8511fdfba0c94de0cd1329"),
    "box-cut": (
        ["box-cut", "--seed", "7", "--n-samples", "20000",
         "--s-grid", "3.5", "4.1", "6"],
        "7cdf70b96bc37c0a81eb50b360c731fbe924c68589bd9b4c2b37dfe75870d9c3"),
    "entangle-transverse": (
        ["entangle", "--n-grid", "40", "--axis", "transverse"],
        "a8aa0ba74803f99b11a0043d684e3ab79fda85de214f6d01674311bb5ae96e91"),
    "entangle-separation": (
        ["entangle", "--n-grid", "40", "--axis", "separation"],
        "fc2ebf2ca38be1921587bc182822ac01edd74b36f8579a224015153e9e11f289"),
    "semiclassical": (
        ["semiclassical", *STOCHASTIC_ENSEMBLE],
        "8fb522280d847cd0f0aa4ffd65c6879129edd491474e65995c24d49b8d9f2f15"),
    "compare": (
        ["compare", *STOCHASTIC_ENSEMBLE],
        "bf97b1dd08655c84f01c2480374758751ce8f2ab9aab695c0f332bafdd0045a6"),
    "phase-space-check": (
        ["phase-space-check", "--seed", "7", "--n-samples", "20000"],
        "2d6adbaa50aa35bc98f3e920c82253959bd7cc2b76cfb5265802642e5be54f06"),
    "self-test": (
        ["self-test", "--seed", "7", "--n-samples", "5000"],
        "3880eade3802214401f7bebbb7c773b59799b8b173f6df1f34eb024527844f5f"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_data_file_digest(name, tmp_path):
    argv, digest = RUNS[name]
    out = tmp_path / "data.out"
    main([*argv, "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
