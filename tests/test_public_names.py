"""The pipeline calls every public function it exports: each public
module-level function and class of ``src/tracewatt`` is named somewhere
in ``src/`` outside its own definition.  A name counts wherever it is
read, as a plain name, an attribute, a type annotation or an import
alias; names are matched as text, not by binding."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "tracewatt").glob("*.py"))

# module.name -> why nothing in src/ names it
UNNAMED_IN_SRC = {
    "config.emit_config": "only tests call it; ROADMAP item 3 gives it its caller",
    "synth.verify_fixture": "bench/checks.py calls it; ROADMAP item 6 moves it beside it",
}


def _public_names_unnamed_elsewhere() -> set[str]:
    """module.name of each public module-level def or class that no code
    in src/ names outside the top-level statement that defines it."""
    defined = {}  # (module, name) -> index of the defining top-level statement
    named = {}  # name -> the (module, statement index) pairs that name it
    for path in SOURCES:
        module = path.stem
        for index, statement in enumerate(ast.parse(path.read_text(encoding="utf-8")).body):
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                if not statement.name.startswith("_"):
                    defined[(module, statement.name)] = index
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                named.setdefault(name, set()).add((module, index))
    return {
        f"{module}.{name}"
        for (module, name), index in defined.items()
        if not named.get(name, set()) - {(module, index)}
    }


def test_every_public_function_and_class_is_named_in_src():
    # the allow-list is exact, so an entry whose caller has come goes too
    assert _public_names_unnamed_elsewhere() == set(UNNAMED_IN_SRC)
