"""Every artifact of ``scripts/output_digests.py``'s fixed runs, byte for byte.

The script's lines must equal ``tests/fixtures/output_digests.txt``.  A
change that alters outputs on purpose regenerates that file (see the
script's docstring) and names the changed lines and the reason.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tests" / "fixtures" / "output_digests.txt"


def _script():
    spec = importlib.util.spec_from_file_location("output_digests",
                                                  ROOT / "scripts" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _versions_and_digests(lines):
    return ([ln for ln in lines if ln.startswith("#")],
            [ln for ln in lines if not ln.startswith("#")])


def test_output_digests_match_fixture():
    # the '#' lines name the numpy and twolevel versions; another numpy may
    # round sin and cos differently, so the message shows both
    made_with, expected = _versions_and_digests(EXPECTED.read_text().splitlines())
    run_with, produced = _versions_and_digests(_script().digest_lines())
    assert produced == expected, f"fixture made with {made_with}, run with {run_with}"
