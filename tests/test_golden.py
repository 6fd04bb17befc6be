"""Golden outputs: every command's exit code, stdout, stderr and ``--out`` on
fixed inputs, pinned across commits (a characterization test).

Structure and every non-float value must match exactly; floats within 1e-12
relative, because NumPy's SIMD ``exp`` may differ in the last bit between
CPUs and NumPy versions. ``replay``'s ``perceived_latency_s`` must match bit
for bit: it comes from integer millisecond differences through add, multiply,
divide, sqrt and a sequential ``cumsum`` only, which IEEE 754 rounds the same
on every platform, with no NumPy transcendental on the way. (Its ``trust``
passes through ``exp``, so it keeps the tolerance.) If one platform disagrees
in those bits, read the values before loosening the check: the tolerance once
hid an intended last-bit change to the window means through many commits. ``tests/golden/regenerate.py`` rewrites the
expected file when an output changes on purpose, in its last bits too.
"""

import gzip
import importlib.util
import json
import math
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

EXPECTED = json.loads(gzip.decompress((GOLDEN / "expected.json.gz").read_bytes()))
REL_TOL = 1e-12


def assert_matches(got, want, where="out"):
    """``got`` equals ``want`` in structure and every value, floats within REL_TOL."""
    if isinstance(want, float):
        assert type(got) is float, f"{where}: {got!r} is not a float"
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict), f"{where}: {got!r} is not an object"
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key, value in want.items():
            assert_matches(got[key], value, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list), f"{where}: {got!r} is not an array"
        assert len(got) == len(want), f"{where}: {len(got)} items, expected {len(want)}"
        for index, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{index}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def perceived(records):
    return [record["perceived_latency_s"] for record in records or []]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    regenerate.unpack_inputs(directory)
    return directory


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_output_unchanged(inputs, case):
    want = EXPECTED[case]
    assert want["argv"] == regenerate.cases()[case]
    got = regenerate.run_case(want["argv"], inputs)
    assert (got["code"], got["stdout"], got["stderr"]) == (
        want["code"], want["stdout"], want["stderr"]
    )
    assert_matches(got["out"], want["out"])
    if case.startswith("replay_"):  # bit for bit: see the module docstring
        assert perceived(got["out"]) == perceived(want["out"])


def test_cases_are_all_recorded():
    assert sorted(regenerate.cases()) == sorted(EXPECTED)


@pytest.mark.parametrize(
    "got,want",
    [(1.0 + 1e-11, 1.0), (0.0, 1e-300), (1, 1.0), ({"a": 1, "b": 2}, {"b": 2, "a": 1}),
     ([1.0], [1.0, 2.0]), (True, 1)],
    ids=["float_off", "zero", "int_for_float", "key_order", "length", "bool_for_int"],
)
def test_comparison_catches(got, want):
    with pytest.raises(AssertionError):
        assert_matches(got, want)


def test_comparison_tolerates_last_bits():
    assert_matches({"a": [1.0 + 2e-16, "x", 3]}, {"a": [1.0, "x", 3]})
