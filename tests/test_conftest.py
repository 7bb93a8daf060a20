"""tests/conftest.py fails a test on any warning it raises, yet a failing
@given test still shows its falsifying example: the deprecation hypothesis
raises inside its own report hook is the one warning the rule leaves alone."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

CONFTEST = Path(__file__).resolve().parent / "conftest.py"

CASES = {
    "test_falsified.py": (
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_falsified(n):\n"
        "    assert n < 0\n"
    ),
    "test_warns.py": (
        "import warnings\n\n\n"
        "def test_warns():\n"
        "    warnings.warn('overflow', RuntimeWarning)\n"
    ),
}


@pytest.fixture
def run_copy(tmp_path):
    """Run pytest on one case file, next to a copy of tests/conftest.py."""
    tests = tmp_path / "tests"
    tests.mkdir()
    shutil.copy(CONFTEST, tests / "conftest.py")
    for name, source in CASES.items():
        (tests / name).write_text(source, encoding="utf-8")

    def run(name):
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q", f"tests/{name}"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
    return run


def test_failing_given_shows_its_example(run_copy):
    result = run_copy("test_falsified.py")
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr


def test_runtime_warning_fails_the_test(run_copy):
    result = run_copy("test_warns.py")
    assert result.returncode == 1, result.stdout + result.stderr
    assert "RuntimeWarning: overflow" in result.stdout
