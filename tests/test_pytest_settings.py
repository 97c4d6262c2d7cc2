"""The repo's pytest settings report a failing hypothesis property by name.

`filterwarnings = ["error"]` turns every warning into an error.  When a `@given` test fails,
hypothesis's pytest plugin imports libcst to suggest a patch, and libcst warns that
`mypy_extensions.TypedDict` is deprecated; unless that one warning is ignored, the session ends
in INTERNALERROR and never names the failing test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_failing_property_is_reported_by_name(tmp_path):
    (tmp_path / "test_fail.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fail.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "FAILED test_fail.py::test_fails" in out
    assert "INTERNALERROR" not in out
