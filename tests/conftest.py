from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gramdelta import dh_model, gram, riemann_model


@pytest.fixture(scope="session")
def riemann():
    return riemann_model()


@pytest.fixture(scope="session")
def davenport():
    return dh_model()


@pytest.fixture
def gram_point_calls(monkeypatch) -> list[int]:
    """The indices n of every gram.gram_point call, in order: the function is
    wrapped in each gramdelta module that imported it by name."""
    calls: list[int] = []
    real = gram.gram_point

    def counted(model, n):
        calls.append(n)
        return real(model, n)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gramdelta" and getattr(module, "gram_point", None) is real:
            monkeypatch.setattr(module, "gram_point", counted)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import REPORT_LINES
    except ImportError:
        return
    if REPORT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(REPORT_LINES):
            terminalreporter.write_line(line)
