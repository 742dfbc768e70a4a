"""No module in ``src/`` or ``tests/`` keeps a module-level import it never
uses. A name imported only for another module to read stays exempt when
its line carries ``# noqa: F401``; names listed in ``__all__`` count as
used. This stands in for a linter's unused-import check with the standard
library's ``ast`` alone.

Nor does ``src/`` define a function, method or class that only tests
could call: every name defined there is referenced somewhere in ``src/``
(as a name, an attribute or an import) or listed in ``__all__``. Dunder
methods are called by Python itself and are exempt. Nor does it define a
method that only restates a field: one, not a property, whose whole body
returns a field of ``self`` or a subscript of one, a second way to read
what the field itself gives.

And ``src/`` imports only the standard library, numpy (its one runtime
dependency in ``pyproject.toml``) and itself, at any depth of the module;
scipy, networkx and hypothesis are for the tests.

Last, only ``core.World`` writes a sensor's ``failed``, ``pos`` or
``energy``, or adds to ``World.changes``: its ``fail`` and ``apply_move``
are what keep ``World.graph`` current and record each change in
``World.changes``, the one record that a re-election and every step's
outcome read. Whether a sensor may move is read off its energy
(``World.affords``), so a write of a stored ``static`` flag, which would
be a second copy of that fact, is rejected too. Nor does anything but
``World`` write its chain, ``barrier``, or the slot map, hole set, broken
links and edit record that ``World.edit_chain`` keeps with it, which the
verdict and a re-election read instead of the whole chain; so no chain
escapes the check of ``edit_chain``, that it names each sensor at most
once, and the verdict's broken links have one writer.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/**/*.py"))
MODULES = sorted([*SOURCES, *ROOT.glob("tests/*.py")])


def exported(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return names


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported(tree)
    return [f"line {line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_level_imports(path):
    assert unused_imports(path) == []


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os  # noqa: F401\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "print(math.pi)\n"
    )
    assert unused_imports(module) == ["line 4: dumps"]


def unreferenced_definitions(paths: list[Path]) -> list[str]:
    """``file:line name`` of each function, method or class defined in
    ``paths`` whose name no module among them references or exports."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        used |= exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno} {node.name}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    return sorted(where for name, where in defined.items()
                  if name not in used and not (name.startswith("__") and name.endswith("__")))


def test_src_defines_nothing_it_never_uses():
    assert unreferenced_definitions(SOURCES) == []


def test_scan_flags_an_unreferenced_definition(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "import os.path as osp\n"
        "__all__ = ['Public']\n"
        "class Public:\n"
        "    def __len__(self): return 0\n"
        "    def called(self): return osp\n"
        "    @property\n"
        "    def unused(self): return self.called()\n"
        "def helper(): return 1\n"
        "def orphan(): return helper()\n"
    )
    assert unreferenced_definitions([module]) == ["probe.py:7 unused", "probe.py:9 orphan"]


def _self_field(node: ast.expr) -> bool:
    """Whether ``node`` is ``self.name`` or a subscript of it."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def field_accessors(paths: list[Path]) -> list[str]:
    """``file:line Class.method`` of each method in ``paths``, not a
    property, whose whole body, a docstring aside, returns a field of
    ``self`` or a subscript of one."""
    out = []
    for path in paths:
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or any(
                        isinstance(d, ast.Name) and d.id == "property"
                        for d in fn.decorator_list):
                    continue
                body = fn.body
                if ast.get_docstring(fn) is not None:
                    body = body[1:]
                if (len(body) == 1 and isinstance(body[0], ast.Return)
                        and body[0].value is not None and _self_field(body[0].value)):
                    out.append(f"{path.name}:{fn.lineno} {cls.name}.{fn.name}")
    return out


def test_src_defines_no_method_that_restates_a_field():
    assert field_accessors(SOURCES) == []


def test_scan_flags_a_field_accessor(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "class Graph:\n"
        "    def row(self, v): return self.adjacency[v]\n"
        "    def get(self):\n"
        "        \"The rows.\"\n"
        "        return self.rows\n"
        "    @property\n"
        "    def barrier(self): return self._barrier\n"
        "    def __len__(self): return len(self.rows)\n"
        "    def first(self): return self.rows[0].x\n"
        "    def copy(self): return Graph()\n"
        "    def nothing(self): return\n"
        "def free(self): return self.rows\n"
    )
    assert field_accessors([module]) == ["probe.py:2 Graph.row", "probe.py:3 Graph.get"]


RUNTIME_PACKAGES = {"numpy"}


def foreign_imports(path: Path) -> list[str]:
    """``line: module`` of each import in ``path``, at any depth, that is
    neither relative, in the standard library nor a runtime package."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [f"line {node.lineno}: {name}" for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | RUNTIME_PACKAGES]
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_src_imports_only_stdlib_numpy_and_itself(path):
    assert foreign_imports(path) == []


def test_scan_flags_a_foreign_import(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import json, numpy.linalg\n"
        "from . import core\n"
        "from .graph import PL\n"
        "from collections.abc import Mapping\n"
        "import networkx as nx\n"
        "def solve():\n"
        "    from scipy.optimize import linear_sum_assignment\n"
        "    return linear_sum_assignment\n"
    )
    assert foreign_imports(module) == ["line 6: networkx", "line 8: scipy.optimize"]


WORLD_STATE = {"failed", "pos", "energy", "static", "changes",
               "barrier", "_barrier", "slots", "holes", "chain_edits", "broken"}
# Methods that edit a list, a set or a dict in place, such as the change
# record, the chain or its slot map.
LIST_EDITS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
              "add", "discard", "update", "setdefault", "popitem"}


def state_writes(path: Path) -> list[str]:
    """``line: .name`` of each write to an attribute named in
    ``WORLD_STATE`` in ``path`` outside the body of a class named ``World``:
    assignments of every form, ``del``, ``setattr`` with a literal name, an
    item assignment and a call of a ``LIST_EDITS`` method on it."""
    tree = ast.parse(path.read_text())
    inside_world = {
        id(node) for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "World"
        for node in ast.walk(cls)
    }
    writes = []
    for node in ast.walk(tree):
        if id(node) in inside_world:
            continue
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            name = node.attr
        elif (isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Attribute)):
            name = node.value.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in LIST_EDITS and isinstance(node.func.value, ast.Attribute)):
            name = node.func.value.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            name = node.args[1].value
        else:
            continue
        if name in WORLD_STATE:
            writes.append((node.lineno, name))
    return [f"line {line}: .{name}" for line, name in sorted(writes)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_world_writes_liveness_and_position(path):
    assert state_writes(path) == []


def test_scan_flags_a_state_write(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "class World:\n"
        "    def fail(self, s): s.failed = True\n"
        "    def move(self, s, p): s.pos = p; self.changes.append(p)\n"
        "def kill(s): s.failed = True\n"
        "def swap(a, b): a.pos, b.pos = b.pos, a.pos\n"
        "def read(s): return s.failed, s.position, s.static, s.energy\n"
        "def sneak(s): setattr(s, 'failed', True)\n"
        "def drain(s): s.energy -= 1\n"
        "def freeze(s): setattr(s, 'static', True)\n"
        "def log(w, m): w.changes.append(m); w.moves.append(m)\n"
        "def since(w, k): return w.changes[k:], w.changes.count(k)\n"
        "def forge(w, m): w.changes[0] = m; w.changes += [m]\n"
        "def chain(w, ids): w.barrier = ids; w.edit_chain(0, len(w.barrier), ids)\n"
        "def cut(w): w.barrier[1:3] = []; del w.barrier[0]; w.barrier[0] = 7\n"
        "def grow(w, s): w.barrier.append(s); w.barrier.insert(0, s); w.barrier += [s]\n"
        "def remap(w, s): w.slots[s] = 0; w.slots.pop(s); w.slots.update({s: 1})\n"
        "def unlog(w): w.chain_edits.clear(); w._barrier = []; return w.barrier[::-1]\n"
        "def mend(w, u): w.broken[u] = 0; w.broken.pop(u); return w.broken.get(u)\n"
    )
    assert state_writes(module) == [
        "line 4: .failed", "line 5: .pos", "line 5: .pos", "line 7: .failed",
        "line 8: .energy", "line 9: .static", "line 10: .changes",
        "line 12: .changes", "line 12: .changes", "line 13: .barrier",
        "line 14: .barrier", "line 14: .barrier", "line 14: .barrier",
        "line 15: .barrier", "line 15: .barrier", "line 15: .barrier",
        "line 16: .slots", "line 16: .slots", "line 16: .slots",
        "line 17: ._barrier", "line 17: .chain_edits", "line 18: .broken",
        "line 18: .broken"]
