"""The project's own pytest settings, run on a scratch test module."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_falsified_hypothesis_test_fails_alone(pytester):
    # Hypothesis imports more modules while it reports a falsifying
    # example; under "error" filters a warning there must not end the
    # session, so the failure is counted and the next test still runs.
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(
        test_falsified="""
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=5, database=None)
        @given(st.integers())
        def test_falsified(x):
            assert x != x

        def test_after():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_falsified.py")
    assert result.ret == 1
    result.assert_outcomes(failed=1, passed=1)
