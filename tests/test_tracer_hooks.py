"""The benchmark's tracer patches afshape functions by module and attribute name.

perfbench/tracer.py is loaded by file path, the way perfbench/checks.py loads
the oracle, so a renamed or removed hook fails here rather than only inside a
traced benchmark run.
"""

import functools
import importlib
import importlib.util
from collections import Counter
from contextlib import ExitStack
from pathlib import Path

from afshape import RegionSpec, SolverConfig
from afshape.cli import run_and_export

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# hooks on functions the solve no longer calls; their spans read 0 on every workload
DEAD_HOOKS = {("afshape.solver", "eval_objective"), ("afshape.solver", "m2_objective")}


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


def test_every_live_hook_is_called_by_a_plain_and_a_verbose_run(tmp_path):
    # a refactor that moves a call away from a hooked name would zero that span silently
    tracer = load_tracer()
    calls = Counter()

    def counter(hook):
        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[hook] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    config = SolverConfig(n=8, region=RegionSpec(delays=(1, 2), dopplers=(-2, 3)),
                          gamma1=2, gamma2=20)
    with ExitStack() as stack:
        for module_name, attr, _ in tracer.TRACED:
            stack.enter_context(tracer.patched(module_name, attr, counter((module_name, attr))))
        run_and_export(config, tmp_path / "plain")
        run_and_export(config, tmp_path / "verbose", verbose=True)
    uncalled = {(module_name, attr) for module_name, attr, _ in tracer.TRACED
                if calls[(module_name, attr)] == 0}
    assert uncalled <= DEAD_HOOKS, sorted(uncalled - DEAD_HOOKS)
