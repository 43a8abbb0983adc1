"""The package's import structure: imports at module top only, and no import cycle."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "respox"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _tree(module: str) -> ast.Module:
    path = PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _package_imports(tree: ast.Module) -> set:
    """Modules of this package that a module imports: `from . import x`, `from .x import y`."""
    out = set()
    for node in ast.walk(tree):
        names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        assert not any(name.split(".")[0] == "respox" for name in names), (
            f"line {node.lineno}: import the package relatively, so this graph sees the import"
        )
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                out.update(alias.name for alias in node.names if alias.name in MODULES)
            else:
                out.add(node.module)
    return out


def _import_graph() -> dict:
    return {module: _package_imports(_tree(module)) - {"__init__"} for module in MODULES}


def _cycle(graph: dict):
    """One import cycle as a list of modules, or None; depth-first, three colours."""
    state, stack = {}, []

    def visit(node):
        state[node] = "open"
        stack.append(node)
        for succ in sorted(graph.get(node, ())):
            if state.get(succ) == "open":
                return stack[stack.index(succ):] + [succ]
            if succ not in state:
                found = visit(succ)
                if found:
                    return found
        stack.pop()
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state:
            found = visit(node)
            if found:
                return found
    return None


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_a_function(module):
    nested = []
    for func in ast.walk(_tree(module)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested += [
                f"{module}.py:{node.lineno} in {func.name}"
                for node in ast.walk(func)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            ]
    assert not nested, f"imports inside a function body: {nested}"


def test_package_import_graph_is_acyclic():
    graph = _import_graph()
    assert graph["cli"], "the graph should see cli's package imports"
    assert _cycle(graph) is None, f"import cycle: {' -> '.join(_cycle(graph))}"


def test_cycle_finder_sees_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None
