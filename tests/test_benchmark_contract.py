"""The benchmark under perfbench/ times these program functions by name."""
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_timed_function_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    tracer.check_program()
