"""What importing the package costs, and the lazily loaded names.

Every CLI call imports `stdlattice.cli`, so it must not pull in `dataclasses`
(with `inspect`, `ast`, `dis` and `tokenize` behind it) or any library
module that its command does not run.  The package's public names, the
brute-force oracle's among them, load on first access, and still reach every
caller: as attributes, by name import, by star import and in `dir()`.  The
library calls the CLI makes stay module-level names of `stdlattice.cli`, so
they can be replaced there before their modules load.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stdlattice
from stdlattice import norm2d

ORACLE_NAMES = ["BruteCvpResult", "brute_cvp", "brute_minima"]


def run_python(code: str) -> str:
    """stdout of a fresh interpreter that imports this copy of the package."""
    src = str(Path(stdlattice.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def modules_after(statement: str) -> set[str]:
    return set(run_python(f"import sys\n{statement}\nprint('\\n'.join(sys.modules))").split())


# The modules that `import stdlattice.cli` loads, and what each command adds.
CLI_BASE = {
    "stdlattice",
    "stdlattice.cli",
    "stdlattice.errors",
    "stdlattice.exactlin",
    "stdlattice.norms",
}
COMMAND_MODULES = {
    "reduce2d": {"norm2d"},
    "nearest": {"cvp"},
    "minima": {"enumeration"},
    "check": {"enumeration", "standardness"},
    "standardize": {"enumeration", "standardness"},
    "family": {"enumeration", "families", "standardness"},
}


def package_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "stdlattice" or m.startswith("stdlattice.")}


def command_argv(command: str, tmp_path) -> list[str]:
    if command == "family":
        return ["family", "4"]
    if command in ("reduce2d", "nearest"):
        rows = [[3, 1], [1, 4]]
    else:
        rows = [[3, 1, 0], [1, 4, 1], [0, 1, 5]]
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({"dim": len(rows), "basis": rows}))
    return [command, str(path), *(["1/2", "1"] if command == "nearest" else [])]


def test_cli_import_loads_neither_dataclasses_nor_the_oracle():
    # Compared with a bare interpreter, so modules that site-packages .pth
    # files preload do not count.
    added = modules_after("import stdlattice.cli") - modules_after("pass")
    assert "dataclasses" not in added
    assert package_modules(added) == CLI_BASE


def test_package_import_loads_no_submodule():
    assert package_modules(modules_after("import stdlattice")) == {"stdlattice"}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_runs(command, tmp_path):
    argv = command_argv(command, tmp_path)
    loaded = modules_after(
        "import contextlib, io\n"
        "from stdlattice import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) in (0, 3)"
    )
    expected = CLI_BASE | {f"stdlattice.{m}" for m in COMMAND_MODULES[command]}
    assert package_modules(loaded) == expected


# Each library call of the CLI, its home module, and a command that makes it.
CLI_CALLS = [
    ("successive_minima", "enumeration", "minima"),
    ("check_standard", "standardness", "check"),
    ("standardize_low_dim", "standardness", "standardize"),
    ("reduce_2d", "norm2d", "reduce2d"),
    ("verify_family", "families", "family"),
    ("nearest_plane", "cvp", "nearest"),
    ("equality_case_analyze", "cvp", "nearest"),
]


@pytest.mark.parametrize("name, home, command", CLI_CALLS, ids=[c[0] for c in CLI_CALLS])
def test_cli_calls_are_patchable_before_their_modules_load(name, home, command, tmp_path):
    # Tests and the benchmark's tracer replace these names on the cli module;
    # the replacement must be what the command calls.
    argv = command_argv(command, tmp_path)
    out = run_python(
        "import sys\n"
        "from stdlattice import cli\n"
        f"assert 'stdlattice.{home}' not in sys.modules\n"
        f"assert callable(cli.{name}) and cli.{name}.__name__ == {name!r}\n"
        "class Intercepted(Exception):\n"
        "    pass\n"
        "def replacement(*args, **kwargs):\n"
        "    raise Intercepted\n"
        f"cli.{name} = replacement\n"
        "try:\n"
        f"    cli.main({argv!r})\n"
        "except Intercepted:\n"
        "    print('intercepted')\n"
    )
    assert out.split() == ["intercepted"]


def test_every_public_name_is_its_home_modules_object():
    out = run_python(
        "import importlib\n"
        "import stdlattice\n"
        "for name in stdlattice.__all__:\n"
        "    home = importlib.import_module('stdlattice.' + stdlattice._HOMES[name])\n"
        "    assert getattr(stdlattice, name) is getattr(home, name), name\n"
        "from stdlattice import enumeration, exactlin\n"
        "assert enumeration.DEFAULT_MAX_CANDIDATES is exactlin.DEFAULT_MAX_CANDIDATES\n"
        "assert enumeration.DEFAULT_MAX_DIM is exactlin.DEFAULT_MAX_DIM\n"
        "print(len(stdlattice.__all__))"
    )
    assert int(out) == len(stdlattice.__all__)


def test_submodules_resolve_as_attributes_and_by_import():
    out = run_python(
        "import sys\n"
        "import stdlattice\n"
        "norms = stdlattice.norms\n"
        "assert norms is sys.modules['stdlattice.norms']\n"
        "assert 'stdlattice.cvp' not in sys.modules\n"
        "from stdlattice import cli, exactlin\n"
        "assert cli is sys.modules['stdlattice.cli']\n"
        "assert exactlin is stdlattice.exactlin is sys.modules['stdlattice.exactlin']\n"
        "print('ok')"
    )
    assert out.split() == ["ok"]


@pytest.mark.parametrize(
    "access",
    [
        "value = stdlattice.brute_minima",
        "from stdlattice import brute_cvp, BruteCvpResult\nvalue = (brute_cvp, BruteCvpResult)",
        "from stdlattice import *\nvalue = (brute_minima, brute_cvp, BruteCvpResult)",
    ],
    ids=["attribute", "from-import", "star-import"],
)
def test_oracle_names_load_on_first_access(access):
    out = run_python(
        "import sys\n"
        "import stdlattice\n"
        "assert 'stdlattice.oracle' not in sys.modules\n"
        f"{access}\n"
        "from stdlattice import oracle\n"
        "values = value if isinstance(value, tuple) else (value,)\n"
        "assert all(v is getattr(oracle, v.__name__) for v in values)\n"
        "print('ok')"
    )
    assert out.split() == ["ok"]


def test_dir_lists_oracle_names_without_loading_them():
    out = run_python(
        "import sys\n"
        "import stdlattice\n"
        "names = dir(stdlattice)\n"
        "assert not [m for m in sys.modules if m.startswith('stdlattice.')]\n"
        "assert set(stdlattice.__all__) <= set(names)\n"
        "assert names == sorted(names)\n"
        "print(' '.join(n for n in names if not n.startswith('_')))"
    )
    listed = out.split()
    assert set(ORACLE_NAMES) <= set(listed)


def test_unknown_name_still_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stdlattice.no_such_name
    assert not hasattr(stdlattice, "ceil_sqrt")
    with pytest.raises(ImportError):
        from stdlattice import no_such_name  # noqa: F401


def test_unknown_name_raises_attribute_error_before_anything_loads():
    out = run_python(
        "import sys\n"
        "import stdlattice\n"
        "try:\n"
        "    stdlattice.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "assert not hasattr(stdlattice, '__main__')\n"
        "assert not [m for m in sys.modules if m.startswith('stdlattice.')]\n"
    )
    assert out == "module 'stdlattice' has no attribute 'no_such_name'\n"


def test_norm2d_depends_only_on_errors_exactlin_and_norms():
    # The 2D reduction is certified by the Gauss criterion and a covolume
    # check, so it needs neither the enumeration nor the nearest-plane
    # membership test.
    tree = ast.parse(Path(norm2d.__file__).read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("stdlattice") for a in node.names)
    assert set(imported) == {"errors", "exactlin", "norms"}
    assert "is_basis_of" not in imported["exactlin"]


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports and never reads.  A name read only in
    an annotation counts as read, also when the annotation is a string."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            args = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            annotations += [arg.annotation for arg in args if arg and arg.annotation]
            annotations += [node.returns] if node.returns else []
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees = [tree] + [
        ast.parse(c.value, mode="eval")
        for ann in annotations
        for c in ast.walk(ann)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    ]
    used = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_import_scan_sees_what_a_deletion_leaves_behind():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import isqrt, gcd as g\n"
        "from typing import Sequence\n"
        "from fractions import Fraction\n"
        "def f(x: Sequence[int]) -> 'Fraction':\n"
        "    return g(*x)\n"
    )
    assert unused_imports(source) == ["isqrt (line 3)", "os (line 2)"]


@pytest.mark.parametrize(
    "path",
    sorted(Path(stdlattice.__file__).parent.glob("*.py")),
    ids=lambda path: path.name,
)
def test_no_library_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []
