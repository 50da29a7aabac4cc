"""Every module-level name and method in ``src/gravitas`` is reached or justified.

A function, class or constant defined at module level must be reached from
the command-line entry point ``cli.main`` through the bodies of other source
definitions, or be an entry of ``ALLOWED`` with the reason it stays. The walk
is transitive, so a helper only reached from an unreached function is itself
unreached. Methods are indexed on their own, as ``Class.method``: a reached
class does not reach them, and one is reached when its name appears as an
attribute, ``x.method``, in a reached body. Dunder methods, which Python
calls itself, count as part of their class. Code that only tests read, such
as the paper's 2->2 derivation and the numerical reference for the tree pole,
lives in ``tests/oracles.py``. The reasons left are a benchmark probe, an
entry allowed only while ``perfbench/`` still names it, and a method that
``argparse`` calls.
"""

import ast
import re
from pathlib import Path

import gravitas

SRC = Path(gravitas.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ENTRY = ("cli", "main")
REASONS = {
    "bench-probe": "the benchmark's layer probes call it",
    "argparse": "argparse calls it on a usage error",
}
ALLOWED = {
    ("kinematics", "two_body_batch"): "bench-probe",
    ("entanglement", "evolve_gaussian"): "bench-probe",
    ("amplitudes", "m_3to3_tree"): "bench-probe",
    ("amplitudes", "m_graviton_emission"): "bench-probe",
    ("cli", "_Parser.error"): "argparse",
}


def _is_method(node):
    return (isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__")))


def _index():
    """Module-level definitions and methods {(module, name): node}, a method
    named ``Class.method``, and, per module, the names its relative imports
    bind {name: (module, name)}."""
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
                if isinstance(node, ast.ClassDef):
                    for item in filter(_is_method, node.body):
                        defs[mod, f"{node.name}.{item.name}"] = item
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        defs[mod, t.id] = node
    return defs, imports


def _own_nodes(definition):
    """The nodes of a definition, less the methods that are indexed on their own."""
    todo = [definition]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(child for child in ast.iter_child_nodes(node)
                    if not (node is definition and isinstance(node, ast.ClassDef)
                            and _is_method(child)))


def _reached(defs, imports, roots):
    methods = {}
    for mod, name in defs:
        if "." in name:
            methods.setdefault(name.split(".")[1], []).append((mod, name))
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        mod = key[0]
        for node in _own_nodes(defs[key]):
            if isinstance(node, ast.Name):
                ref = (mod, node.id) if (mod, node.id) in defs else imports[mod].get(node.id)
                if ref in defs:
                    todo.append(ref)
            elif isinstance(node, ast.Attribute):
                todo.extend(methods.get(node.attr, ()))
    return seen


def test_every_module_level_name_is_reached_or_allowed():
    defs, imports = _index()
    reached = _reached(defs, imports, [ENTRY, *ALLOWED])
    assert sorted(".".join(k) for k in defs if k not in reached) == []


def test_allow_list_is_current():
    defs, imports = _index()
    from_entry = _reached(defs, imports, [ENTRY])
    bench = "\n".join(p.read_text(encoding="utf-8")
                      for p in sorted(PERFBENCH.glob("*.py")))
    for key, reason in ALLOWED.items():
        assert key in defs, f"{'.'.join(key)} is not defined"
        assert reason in REASONS, f"{'.'.join(key)}: unknown reason {reason!r}"
        assert key not in from_entry, f"{'.'.join(key)} is reached from cli.main"
        if reason == "bench-probe":
            assert re.search(rf"\b{key[1]}\b", bench), \
                f"{'.'.join(key)}: no file in perfbench/ names it"
