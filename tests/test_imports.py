"""What importing the package costs, and the lazily loaded oracle names.

`import stdlattice.cli` runs on every CLI call, so it must not pull in
`dataclasses` (with `inspect`, `ast`, `dis` and `tokenize` behind it) or the
brute-force oracle.  The oracle's public names still reach every caller: as
attributes, by name import, by star import and in `dir()`.
"""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import stdlattice
from stdlattice import norm2d, norms

ORACLE_NAMES = ["BruteCvpResult", "CoefficientBox", "brute_cvp", "brute_minima", "coefficient_box"]


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


def test_cli_import_loads_neither_dataclasses_nor_the_oracle():
    # Compared with a bare interpreter, so modules that site-packages .pth
    # files preload do not count.
    added = modules_after("import stdlattice.cli") - modules_after("pass")
    assert "stdlattice.cli" in added
    assert "dataclasses" not in added
    assert "stdlattice.oracle" not in added


@pytest.mark.parametrize(
    "access",
    [
        "value = stdlattice.brute_minima",
        "from stdlattice import brute_cvp, CoefficientBox\nvalue = (brute_cvp, CoefficientBox)",
        "from stdlattice import *\nvalue = (brute_minima, brute_cvp, coefficient_box, BruteCvpResult, CoefficientBox)",
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
        "assert 'stdlattice.oracle' not in sys.modules\n"
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


def test_ceil_sqrt_lives_in_norms_and_stays_importable_from_the_oracle():
    from stdlattice.oracle import ceil_sqrt

    assert ceil_sqrt is norms.ceil_sqrt
    assert [ceil_sqrt(x) for x in (0, 1, 2, 4, Fraction(9, 4), Fraction(10, 4))] == [0, 1, 2, 2, 2, 2]
    with pytest.raises(ValueError, match="negative radicand"):
        ceil_sqrt(-1)


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
