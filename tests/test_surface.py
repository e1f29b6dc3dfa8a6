"""The declared public surface: every module-level function and class of
src/chiralground, and every method that is not a dunder, is either referenced in
src/ outside its own definition or is one of ENTRY_POINTS, which README's
"Public surface" section lists.  A name is matched by its identifier alone, as a
name or an attribute, so this finds definitions that nothing in src/ can reach.
Likewise every field of a dataclass or NamedTuple in src/ is read there as an
attribute, so that no declared field is left that nothing reads.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chiralground"
README = SRC.parents[1] / "README.md"

# The names that src/ does not call, each with its readers.  The command line
# (chiralground.cli:main, the console script) reaches every other name.
ENTRY_POINTS = {
    "sugawara.weyl_adjoint_stress_residual":
        "perfbench/run.py (the weyl-adjoint workload) and the Weyl adjoint tests",
    "fock.basis_partitions": "perfbench/run.py (the basis_dim of its run records)",
}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, identifier, first line, last line) of each definition checked."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield (f"{module}.{node.name}.{item.name}", item.name, item.lineno,
                           item.end_lineno)


def _references(tree: ast.Module):
    """(identifier, line) of each name and attribute read in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def uncalled() -> set:
    """The qualified names defined in src/ with no reference outside their definition."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    refs = [(module, name, line) for module, tree in trees.items()
            for name, line in _references(tree)]
    return {qual for module, tree in trees.items()
            for qual, name, first, last in _definitions(tree, module)
            if not any(n == name and not (m == module and first <= line <= last)
                       for m, n, line in refs)}


def _is_record(node: ast.ClassDef) -> bool:
    """Whether a class is a dataclass or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return (any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
            or any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases))


def unread_fields() -> set:
    """The qualified fields of the records in src/ that src/ never reads as an attribute."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {f"{module}.{node.name}.{item.target.id}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.ClassDef) and _is_record(node)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and item.target.id not in read}


def readme_surface() -> set:
    """The `module.name` that open each bullet of README's "Public surface" section."""
    section = README.read_text().split("\n## Public surface\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- `(\w+\.\w+)\(", section, re.MULTILINE))


def test_every_uncalled_definition_is_a_declared_entry_point():
    assert uncalled() == set(ENTRY_POINTS)


def test_readme_lists_the_entry_points():
    assert readme_surface() == set(ENTRY_POINTS)



def test_every_record_field_is_read():
    assert unread_fields() == set()
