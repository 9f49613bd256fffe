"""End-to-end acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion; the same checks back ``aclab verify --suite all``.
"""

import pytest

from aclab import verify
from aclab.errors import AclabError
from aclab.verify import ALL_CHECK_NAMES, run_suite

SEED = 20240817


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in run_suite("all", seed=SEED)}


def test_all_criteria_present(results):
    assert tuple(results) == ALL_CHECK_NAMES  # table order
    assert len(ALL_CHECK_NAMES) == 16


@pytest.mark.parametrize("name", ALL_CHECK_NAMES)
def test_criterion(results, name):
    r = results[name]
    line = (
        f"{'PASS' if r.passed else 'FAIL'} {name}: {r.observed} "
        f"[expected {r.expected}; tol {r.tolerance}]"
    )
    print(line)
    assert r.passed, line + (f" :: {r.detail}" if r.detail else "")


def test_raising_check_fails_under_its_table_name(monkeypatch):
    def broken(ctx):
        raise AclabError("planted failure")

    monkeypatch.setitem(verify.SUITES, "steady", (("g_zero", broken),))
    seen = []
    (result,) = run_suite("steady", progress=seen.append)
    assert seen == [result]
    assert result.name == "g_zero" and result.passed is False
    assert result.observed.startswith("error:")
