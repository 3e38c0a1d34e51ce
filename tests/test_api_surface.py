"""Guard: every function and class in ``src/repro`` has a caller in ``src/``.

The scan parses every module under ``src/repro`` except the
``__init__.py`` files (their re-exports are not callers) and collects
each ``def`` and ``class`` at any depth, and every name the code
mentions: identifiers, attribute names, imported names and string
constants that spell an identifier or a dotted / ``module:Class`` path
(``getattr`` targets, layer specs).  A definition is dead when no
mention of its name lies outside dead code; the pass repeats until
nothing more dies, so a helper whose only callers are dead helpers dies
too.  Every name ``perfbench/`` mentions counts as used: the benchmark
wraps and calls those from outside ``src/``.  Dunder methods are left
out, since Python calls them.

Names are matched by spelling, not resolved: a definition escapes the
scan when any live line mentions a name spelled the same way, which
includes its own body (recursion) and an unrelated local variable or
method of another class.  ``IntegratedSystem.check_invariants`` is kept
alive this way by the engine call of the same name inside it.

``ALLOWED`` lists the definitions kept on purpose although nothing in
``src/`` calls them, each with its reason.  A name that becomes dead
fails the test; delete it, or move its callers' tests onto the path
the simulator uses.  An ``ALLOWED`` entry that is no longer dead fails
too, so the list cannot go stale.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

_CLIENT = "the client API docs/SERVICE.md documents"
_EXPERIMENT = "experiment API whose results EXPERIMENTS.md reports"

#: ``"path/in/src/repro.py::Qualified.name"`` -> why it stays
ALLOWED: Dict[str, str] = {
    "serve/client.py::ServeClient.wait_many": _CLIENT,
    "serve/client.py::ServeClient.submit_and_wait": _CLIENT,
    "telemetry/tracer.py::Tracer.for_category":
        "tracer filter docs/OBSERVABILITY.md and docs/PROTOCOL.md document",
    "core/energy.py::EnergyWeights": _EXPERIMENT,
    "core/energy.py::EnergyBreakdown": _EXPERIMENT,
    "core/energy.py::EnergyBreakdown.total_pj": _EXPERIMENT,
    "core/energy.py::estimate_energy": _EXPERIMENT,
    "core/overhead.py::OverheadReport": _EXPERIMENT,
    "core/overhead.py::compute_overhead": _EXPERIMENT,
    "workloads/synthetic.py::SyntheticSpec": _EXPERIMENT,
    "workloads/synthetic.py::SyntheticSpec.validate": _EXPERIMENT,
    "workloads/synthetic.py::SyntheticProducerConsumer": _EXPERIMENT,
    "core/program.py::TranslatedWorkload":
        "runs a translated program; examples/end_to_end_translation.py",
    "harness/persist.py::save_comparisons":
        "writes results/*.json for the benchmarks/ figure runs",
}


def _mentions(node: ast.AST) -> Iterable[str]:
    """Names one AST node mentions (not those of its children)."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name.rsplit(".", 1)[-1]
        if node.asname:
            yield node.asname
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        for part in node.value.replace(":", ".").split("."):
            if part.isidentifier():
                yield part


def _sources(root: Path) -> List[Path]:
    return sorted(path for path in root.rglob("*.py")
                  if path.name != "__init__.py")


def used_by(root: Path) -> Set[str]:
    """Every name the modules under *root* mention."""
    names: Set[str] = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names.update(_mentions(node))
    return names


Definitions = List[Tuple[str, str, Optional[int]]]
References = List[Tuple[str, Optional[int]]]


def parse_tree(root: Path) -> Tuple[Definitions, References]:
    """Every definition under *root* as ``(label, name, enclosing
    definition index)``, with the label ``path::Qualified.name``, and
    every mention as ``(name, enclosing definition index)``."""
    defs: Definitions = []
    refs: References = []

    def visit(node: ast.AST, owner: Optional[int], prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                defs.append((prefix + child.name, child.name, owner))
                visit(child, len(defs) - 1, prefix + child.name + ".")
            else:
                refs.extend((name, owner) for name in _mentions(child))
                visit(child, owner, prefix)

    for path in _sources(root):
        relative = path.relative_to(root).as_posix()
        visit(ast.parse(path.read_text(), str(path)), None, relative + "::")
    return defs, refs


def dead_definitions(tree: Tuple[Definitions, References],
                     used: Set[str] = frozenset(),
                     keep: Set[str] = frozenset()) -> List[str]:
    """Labels of the definitions in *tree* that nothing live mentions
    (see the module docstring); those labelled in *keep* stay alive."""
    defs, refs = tree
    alive = [True] * len(defs)
    while True:
        # live: alive and inside live definitions only; a definition
        # comes before the ones nested in it
        live: List[bool] = []
        for index, (_label, _name, owner) in enumerate(defs):
            live.append(alive[index] and (owner is None or live[owner]))
        mentioned = {name for name, owner in refs
                     if owner is None or live[owner]}
        dying = [index for index, (label, name, _owner) in enumerate(defs)
                 if alive[index] and name not in used
                 and name not in mentioned and label not in keep
                 and not (name.startswith("__") and name.endswith("__"))]
        if not dying:
            return [label for index, (label, _name, _owner)
                    in enumerate(defs) if not alive[index]]
        for index in dying:
            alive[index] = False


def test_every_definition_has_a_caller_in_src():
    tree = parse_tree(ROOT / "src" / "repro")
    used = used_by(ROOT / "perfbench")
    # what ALLOWED keeps alive is alive: its callees are used
    unexpected = dead_definitions(tree, used, keep=set(ALLOWED))
    assert not unexpected, (
        "defined in src/ but called from nowhere in src/ (delete them, "
        "or list them in ALLOWED with a reason): " + ", ".join(unexpected))
    stale = sorted(set(ALLOWED) - set(dead_definitions(tree, used)))
    assert not stale, "ALLOWED names that src/ now calls: " + ", ".join(stale)


def test_scan_flags_a_planted_test_only_def(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from pkg.core import planted, run\n")  # re-exports are not callers
    (package / "core.py").write_text(
        "class Engine:\n"
        "    def step(self):\n"
        "        return helper()\n"
        "\n"
        "    def only_for_tests(self):\n"
        "        return chained()\n"
        "\n"
        "    def __repr__(self):\n"
        "        return 'Engine()'\n"
        "\n"
        "\n"
        "def helper():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def chained():\n"
        "    return 2\n"
        "\n"
        "\n"
        "def planted():\n"
        "    return 3\n"
        "\n"
        "\n"
        "def wrapped():\n"
        "    return 4\n"
        "\n"
        "\n"
        "def run():\n"
        "    return Engine().step()\n")
    (package / "main.py").write_text(
        "from pkg.core import run\n"
        "\n"
        "print(run())\n")
    dead = dead_definitions(parse_tree(package), used={"wrapped"})
    # ``chained`` is called, but only from a dead method: the second
    # pass finds it
    assert dead == ["core.py::Engine.only_for_tests", "core.py::chained",
                    "core.py::planted"]
