"""The README's quick session, run as a doctest, so its outputs stay true."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_session_runs_as_doctest():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted >= 7 and failed == 0
