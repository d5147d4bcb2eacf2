"""The benchmark's tracer times normbench functions by module and name,
so every name it lists must stay a callable of the package."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_is_a_callable_of_the_package():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.TRACED) >= 20
    missing = [f"{module}.{attr}" for module, attr in tracer.TRACED
               if not callable(getattr(importlib.import_module(f"normbench.{module}"),
                                       attr, None))]
    assert missing == []
