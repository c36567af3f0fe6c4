"""Every module-level name and every public class member of the library has a caller.

A public function, class or constant of `src/finfree/*.py` must be used
outside its own definition: by the library, the benchmark, the demos or the
README.  A `_private` name must be used by the library itself.  Checks that
only tests run belong in the test files, next to the tests that run them.

A use in Python code is a loaded name, an attribute, an imported name or a
string constant that names it, alone or after a dotted module path (the
benchmark looks some functions up by name and traces others by
"module.name"); in the README it is the name as a whole word.

A public method or property of a library class is used when Python code in
the library, the benchmark or the demos reads it as an attribute outside its
own definition, or when the README names it as `Class.member`.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "finfree"


def _uses(path):
    """(name, line) of every use of a name in one Python file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield parts[-1], node.lineno


def _definitions(path):
    """name -> (first, last) line of each module-level definition in one file."""
    out = {}
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                out[name] = (first, node.end_lineno)
    return out


def _unused_names(src=SRC, outside=(ROOT / "bench", ROOT / "demos"), readme=ROOT / "README.md"):
    src_uses = defaultdict(list)  # name -> [(path, line)]
    for path in sorted(src.glob("*.py")):
        for name, line in _uses(path):
            src_uses[name].append((path, line))
    used_outside = {name for folder in outside for path in folder.rglob("*.py") for name, _ in _uses(path)}
    used_outside.update(re.findall(r"\w+", readme.read_text()))

    unused = []
    for path in sorted(src.glob("*.py")):
        for name, (first, last) in _definitions(path).items():
            in_src = any(p != path or not first <= line <= last for p, line in src_uses[name])
            public_use = not name.startswith("_") and name in used_outside
            if not (in_src or public_use):
                unused.append(f"{path.stem}.{name}")
    return unused


def _members(path):
    """(class, member, (first, last) line) of each public method and property of the
    module-level classes in one file."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    yield node.name, item.name, (first, item.end_lineno)


def _unused_members(src=SRC, outside=(ROOT / "bench", ROOT / "demos"), readme=ROOT / "README.md"):
    reads = defaultdict(list)  # attribute -> [(path, line)]
    for path in [*sorted(src.glob("*.py")), *(p for folder in outside for p in sorted(folder.rglob("*.py")))]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                reads[node.attr].append((path, node.lineno))
    text = readme.read_text()

    unused = []
    for path in sorted(src.glob("*.py")):
        for cls, name, (first, last) in _members(path):
            read = any(p != path or not first <= line <= last for p, line in reads[name])
            if not (read or re.search(rf"\b{cls}\.{name}\b", text)):
                unused.append(f"{path.stem}.{cls}.{name}")
    return unused


def test_every_module_level_name_has_a_caller():
    assert _unused_names() == []


def test_the_scan_flags_recursion_and_private_names_used_outside_src(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "m.py").write_text(
        "LIMIT = 3\n\n\n"
        "def rec(n):\n    return rec(n - 1) if n else 0\n\n\n"
        "def _helper():\n    return LIMIT\n\n\n"
        "def _lonely():\n    return _lonely\n\n\n"
        "def user():\n    return _helper()\n\n\n"
        "def traced():\n    return 0\n"
    )
    (bench / "b.py").write_text('from m import user\nGROUPS = {"m.traced": "m"}\nprint(_lonely)\n')
    (tmp_path / "README.md").write_text("`rec_not_rec` is another word\n")
    assert _unused_names(src, (bench,), tmp_path / "README.md") == ["m.rec", "m._lonely"]


def test_every_public_class_member_has_a_caller():
    assert _unused_members() == []


def test_the_member_scan_reads_attributes_and_dotted_readme_names(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "m.py").write_text(
        "class Box:\n"
        "    def rec(self, n):\n        return self.rec(n - 1) if n else 0\n\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    def named(self):\n        return 2\n\n"
        "    def bare(self):\n        return 3\n\n"
        "    def used(self):\n        return self._hidden()\n\n"
        "    def _hidden(self):\n        return 4\n"
    )
    (bench / "b.py").write_text("from m import Box\nprint(Box().size, Box().used())\n")
    (tmp_path / "README.md").write_text("`Box.named` is documented; `bare` alone is just a word\n")
    assert _unused_members(src, (bench,), tmp_path / "README.md") == ["m.Box.rec", "m.Box.bare"]
