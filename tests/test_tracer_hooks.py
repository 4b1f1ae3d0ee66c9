"""The benchmark's tracer patches afshape functions by module and attribute name.

perfbench/tracer.py is loaded by file path, the way perfbench/checks.py loads
the oracle, so a renamed or removed hook fails here rather than only inside a
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("afshape_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_hook_resolves_to_a_callable():
    traced = load_tracer().TRACED
    assert traced
    for module_name, attr, _ in traced:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
