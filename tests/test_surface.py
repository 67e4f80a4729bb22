"""Every public name of the coverlab package has a caller outside the tests.

A public name is a top-level function or class of a module under
src/coverlab, or a method of such a class, whose name has no leading
underscore.  It counts as called when a module under src/, scripts/ or
perfbench/ refers to it: as a Name, as an Attribute, as an imported
alias, or inside a dotted identifier string such as the attribute paths
of perfbench/tracer.py's TARGETS.  The scan matches spellings, not
bindings, so a public name that shares its spelling with any other
identifier in those modules (its own body included) counts as called.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# library entry points with no caller in the package, each kept for a reason
ALLOWED = {
    "group.cyclic_group": "Z/n as a table, the way to build a cyclic group of any order",
    "group.pyramidal_chain": "the chain itself; is_pyramidal only says whether one exists",
    "zcover.generate_exact_cover": "exact covers of Z from split scripts, for experiments",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def public_names() -> dict[str, str]:
    """module.qualified name -> bare name, for every public name of coverlab."""
    out = {}
    for path in sorted((ROOT / "src" / "coverlab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            out[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        out[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return out


def referenced_names() -> set[str]:
    """Every identifier the modules under src/, scripts/ and perfbench/ mention."""
    seen = set()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif isinstance(node, ast.alias):
                    seen.update(node.name.split("."))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if _DOTTED.fullmatch(node.value):
                        seen.update(node.value.split("."))
    return seen


def test_every_public_name_has_a_caller():
    seen = referenced_names()
    uncalled = sorted(
        q for q, name in public_names().items() if name not in seen and q not in ALLOWED
    )
    assert uncalled == [], "public names only tests call: " + ", ".join(uncalled)


def test_the_allow_list_holds_only_uncalled_names():
    names, seen = public_names(), referenced_names()
    assert sorted(q for q in ALLOWED if q not in names) == [], "allowed names that are gone"
    assert sorted(q for q in ALLOWED if names[q] in seen) == [], "allowed names with a caller"
