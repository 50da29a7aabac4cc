"""Every module-level name in ``src/gravitas`` is reached or justified.

A function, class or constant defined at module level must be reached from
the command-line entry point ``cli.main`` through the bodies of other source
definitions, or be an entry of ``ALLOWED`` with the reason it stays. The walk
is transitive, so a helper only reached from an unreached function is itself
unreached.
"""

import ast
from pathlib import Path

import gravitas

SRC = Path(gravitas.__file__).resolve().parent
ENTRY = ("cli", "main")
REASONS = {
    "bench-probe": "the benchmark's layer probes call it",
    "test-oracle": "tests hold a runtime path against it",
    "paper-amplitude": "a claim of the source paper, held by the tests",
    "public-api": "part of the library interface beside the CLI",
}
ALLOWED = {
    ("kinematics", "two_body_batch"): "bench-probe",
    ("entanglement", "evolve_gaussian"): "bench-probe",
    ("kinematics", "elastic_cm_config"): "test-oracle",
    ("amplitudes", "spin2_numerator_contracted"): "test-oracle",
    ("amplitudes", "spin0_numerator_contracted"): "test-oracle",
    ("amplitudes", "m_2to2_newton"): "paper-amplitude",
    ("amplitudes", "m_2to2_spin0"): "paper-amplitude",
    ("amplitudes", "m_2to2_spin2"): "paper-amplitude",
    ("amplitudes", "m_compton_probe"): "paper-amplitude",
    ("amplitudes", "newton_potential_element"): "paper-amplitude",
    ("kinematics", "mandelstam"): "public-api",
}


def _index():
    """Module-level definitions {(module, name): node} and, per module, the
    names its relative imports bind {name: (module, name)}."""
    defs, imports = {}, {}
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports[mod] = {alias.asname or alias.name: (node.module or "__init__", alias.name)
                        for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) and node.level == 1
                        for alias in node.names}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        defs[mod, t.id] = node
    return defs, imports


def _reached(defs, imports, roots):
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        mod = key[0]
        for node in ast.walk(defs[key]):
            if isinstance(node, ast.Name):
                ref = (mod, node.id) if (mod, node.id) in defs else imports[mod].get(node.id)
                if ref in defs:
                    todo.append(ref)
    return seen


def test_every_module_level_name_is_reached_or_allowed():
    defs, imports = _index()
    reached = _reached(defs, imports, [ENTRY, *ALLOWED])
    assert sorted(".".join(k) for k in defs if k not in reached) == []


def test_allow_list_is_current():
    defs, imports = _index()
    from_entry = _reached(defs, imports, [ENTRY])
    for key, reason in ALLOWED.items():
        assert key in defs, f"{'.'.join(key)} is not defined"
        assert reason in REASONS, f"{'.'.join(key)}: unknown reason {reason!r}"
        assert key not in from_entry, f"{'.'.join(key)} is reached from cli.main"
