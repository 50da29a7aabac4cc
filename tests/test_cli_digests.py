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
        "3ae00ebc021e74813a89e70a20439dd9e0de104d2044b211f49c48c267436b8a"),
    "deflection": (
        ["deflection"],
        "a718726c3b2002bd566edc4dc599dba202e33ad73f8511fdfba0c94de0cd1329"),
    "box-cut": (
        ["box-cut", "--seed", "7", "--n-samples", "20000",
         "--s-grid", "3.5", "4.1", "6"],
        "dd045838da4771c1a16058fa5d0dc98501e72c555e14c7e8b298a0350d5cdbff"),
    "entangle-transverse": (
        ["entangle", "--n-grid", "40", "--axis", "transverse"],
        "2b9b975a63c2b5a1a7b8edbd5bcbf6e97f81740d14d2be53f235356935b2f739"),
    "entangle-separation": (
        ["entangle", "--n-grid", "40", "--axis", "separation"],
        "e4edaa22b248f35ea9c7c1ce8ec2ff4bc792574069f664ac413e1826f075e37c"),
    "semiclassical": (
        ["semiclassical", *STOCHASTIC_ENSEMBLE],
        "3729ae1c876cb62d20c1da72d4531f7b8b395cd0b57fe8d0516d16c97d6b0f14"),
    "compare": (
        ["compare", *STOCHASTIC_ENSEMBLE],
        "8a9a559c98e14ad592c2b486a436c25a6c80210857e74a86c623d7ea8407327f"),
    "phase-space-check": (
        ["phase-space-check", "--seed", "7", "--n-samples", "20000"],
        "2d6adbaa50aa35bc98f3e920c82253959bd7cc2b76cfb5265802642e5be54f06"),
    "self-test": (
        ["self-test", "--seed", "7", "--n-samples", "5000"],
        "fed3ed69d959afa7b515c4a13379f57a46e71cc1cfe59ec3f0cca2752e750e6a"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_data_file_digest(name, tmp_path):
    argv, digest = RUNS[name]
    out = tmp_path / "data.out"
    main([*argv, "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
