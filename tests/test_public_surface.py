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

A defaulted parameter of a public function or method is used when some call
in the library, the benchmark or the demos, outside the function's own
definition, passes it: by keyword, by position, through `*`/`**` forwarding
or `functools.partial`, or as a string key of a dict literal anywhere in
that code (the way `run_suite` and the benchmark hand over suite settings).
A function that no such code calls is exempt: the README's paper objects
are called by readers.  Calls are matched by name alone, so a call to
another function of the same name counts, and the dict-key rule is blind to
where the dict goes: `cli._sidecar` writes a "precision_bits" key, which
would pass the `precision_bits` of any function.
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


def _signatures(path):
    """(label, name, positional parameters, defaulted parameters, (first, last) line)
    of each public module-level function and public method in one file; a bound
    method's positional parameters start after self or cls."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            items = [(node.name, node, False)]
        elif isinstance(node, ast.ClassDef):
            items = [(f"{node.name}.{item.name}", item, True) for item in node.body
                     if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        else:
            continue
        for label, fn, method in items:
            if fn.name.startswith("_"):
                continue
            a = fn.args
            bound = method and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            positional = [x.arg for x in a.posonlyargs + a.args][bound:]
            defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
            defaulted += [x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
            yield label, fn.name, positional, defaulted, (first, fn.end_lineno)


def _callee(func):
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def _passes(path):
    """(name, line, positions passed, keywords passed) of each call in one file, and
    (None, line, 0, {key}) of each string key of a dict literal.  A `*` argument
    passes every position, a `**` one every keyword (None stands for all)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    yield None, node.lineno, 0, {key.value}
        elif isinstance(node, ast.Call):
            name, args = _callee(node.func), node.args
            if name == "partial" and args:
                name, args = _callee(args[0]), args[1:]
            if name is not None:
                starred = any(isinstance(x, ast.Starred) for x in args)
                yield name, node.lineno, float("inf") if starred else len(args), {k.arg for k in node.keywords}


def _unpassed_parameters(src=SRC, outside=(ROOT / "bench", ROOT / "demos")):
    calls, keys = defaultdict(list), set()  # name -> [(path, line, positions, keywords)]
    for path in [*sorted(src.glob("*.py")), *(p for folder in outside for p in sorted(folder.rglob("*.py")))]:
        for name, line, positions, keywords in _passes(path):
            if name is None:
                keys |= keywords
            else:
                calls[name].append((path, line, positions, keywords))

    unpassed = []
    for path in sorted(src.glob("*.py")):
        for label, name, positional, defaulted, (first, last) in _signatures(path):
            found = [(n, kw) for p, line, n, kw in calls[name] if p != path or not first <= line <= last]
            for param in defaulted if found else ():
                index = positional.index(param) if param in positional else float("inf")
                if not (param in keys or any(param in kw or None in kw or index < n for n, kw in found)):
                    unpassed.append(f"{path.stem}.{label}({param})")
    return unpassed


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


def test_every_defaulted_parameter_of_a_called_function_is_passed():
    assert _unpassed_parameters() == []


def test_the_parameter_scan_reads_each_way_of_passing(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "m.py").write_text(
        "def planted(x, k=None):\n    return planted(x, k)\n\n\n"
        "def by_keyword(x, k=None):\n    return x\n\n\n"
        "def by_position(x, k=None):\n    return x\n\n\n"
        "def by_star(x, k=None):\n    return x\n\n\n"
        "def by_double_star(x, k=None):\n    return x\n\n\n"
        "def by_partial(x, k=None):\n    return x\n\n\n"
        "def by_dict_key(x, setting=None):\n    return x\n\n\n"
        "def uncalled(x, k=None):\n    return x\n\n\n"
        "class Box:\n"
        "    def method(self, x, k=None, *, flag=False):\n        return x\n\n"
        "    @staticmethod\n    def static(x, k=None):\n        return x\n"
    )
    (bench / "b.py").write_text(
        "import functools\nfrom m import *\n\n"
        "args, kw = (1, 2), {}\n"
        "planted(1)\nby_keyword(1, k=2)\nby_position(1, 2)\nby_star(*args)\nby_double_star(1, **kw)\n"
        "functools.partial(by_partial, 1, 2)()\nby_dict_key(1)\nSETTINGS = {\"setting\": 3}\n"
        "Box().method(1, 2)\nBox.static(1)\n"
    )
    assert _unpassed_parameters(src, (bench,)) == ["m.planted(k)", "m.Box.method(flag)", "m.Box.static(k)"]
