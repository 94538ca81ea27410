"""Fuzz test of the command line: random argument tokens and random file
contents must end in a classified exit code, never in a traceback.

Exit 5 (internal consistency failure) would be a bug in the library, so the
only acceptable codes here are 0, 2, 3 and 4.  The ceilings are small so
that every example finishes quickly.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from stdlattice.cli import main

CEILINGS = ["--max-candidates", "1000", "--max-dim", "4"]
FILE_COMMANDS = ["minima", "check", "standardize", "reduce2d", "nearest"]

tokens = st.sampled_from(
    [
        "--norm", "l1", "l2", "linf", "l3", "--json", "--", "--bogus", "-h",
        "0", "1", "-1", "2", "3", "5", "-3/2", "1/2", "1/0", ".5", "-.5", "x", "",
    ]
) | st.integers(-10**6, 10**6).map(str)
# Decimal coordinates for nearest, including exponents past the int print
# limit, which must be refused before the power of ten is built, and zero
# mantissas, which are 0 whatever the exponent and must not build it either.
exponent_tokens = st.builds(
    "{}{}{}".format,
    st.sampled_from(["1", "-2.5", ".5", "3.", "1_0", "0", "-0.00", ".0", "0_0"]),
    st.sampled_from(["e", "E"]),
    st.sampled_from([0, 3, -3, 400, -2000, 4302, -4302, 10**6, -(10**6), 10**20]).map(str),
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
small_ints = st.integers(-6, 6)


def square_rows(n):
    return st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n)


norm_field = st.sampled_from(["l1", "l2", "linf", "L2", ""]) | json_values
# Well-formed bases reach the library, not only the loader; in the malformed
# shapes every key may hold an arbitrary JSON value.
well_formed = st.integers(1, 4).flatmap(
    lambda n: st.fixed_dictionaries(
        {"dim": st.just(n), "basis": square_rows(n)}, optional={"norm": norm_field}
    )
)
malformed = st.fixed_dictionaries(
    {
        "dim": st.integers(-1, 6) | json_values,
        "basis": st.lists(st.lists(small_ints | json_values, max_size=5), max_size=5)
        | json_values,
    },
    optional={"norm": norm_field},
)
json_text = (well_formed | malformed | json_values).map(json.dumps)
plain_text = st.lists(st.lists(small_ints, max_size=5), max_size=6).map(
    lambda lines: "\n".join(" ".join(map(str, line)) for line in lines)
)
contents = (
    json_text.map(str.encode)
    | plain_text.map(str.encode)
    | st.text(max_size=40).map(lambda s: s.encode("utf-8", "surrogatepass"))
    | st.binary(max_size=40)
)


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(FILE_COMMANDS + ["family"]),
    content=contents,
    extra=st.lists(tokens | exponent_tokens, max_size=5),
    missing_file=st.booleans(),
)
def test_cli_exit_codes_are_classified(command, content, extra, missing_file):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "basis")
        if not missing_file:
            with open(path, "wb") as fh:
                fh.write(content)
        argv = [command, *CEILINGS]
        if command in FILE_COMMANDS:
            argv.append(path)
        argv += extra
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4), (argv, content, err.getvalue())
    assert "Traceback" not in err.getvalue()
