"""The benchmark's tracer (perfbench/tracer.py) against the library it wraps.

A library function that is deleted or renamed while the tracer still lists
it breaks every traced benchmark run; perfbench/selftest.py would catch it
too, but it runs outside this suite.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402


def test_tracer_wraps_every_target_and_puts_the_originals_back():
    t = tracer.Tracer()
    try:
        t.install()
        wrapped = set(tracer.installed_wrappers())
        missing = [f"{owner.__name__}.{attr}" for _, owner, attr, _ in tracer.TARGETS
                   if f"{owner.__name__}.{attr}" not in wrapped]
        assert missing == []
    finally:
        t.uninstall()
    assert tracer.installed_wrappers() == []
