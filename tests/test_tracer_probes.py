"""The benchmark tracer's probes resolve on the package and are undone on exit.

``perfbench/tracing.py`` wraps functions by name in the package modules. A
renamed or deleted name breaks only the traced benchmark runs, which need
the full harness; this test enters a tracer on the package itself.
"""

import importlib.util
from pathlib import Path

from mldid import catt, cli, drdid, estimator, learners, nuisance
from mldid.exceptions import IllConditionedWarning

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_probes_resolve_and_are_restored():
    tracing = _tracing()
    modules = dict(cli=cli, estimator=estimator, nuisance=nuisance, catt=catt,
                   learners=learners, drdid=drdid)
    probes = tracing._probes(modules)
    targets = {id(module): module for module, *_ in probes}
    before = {(key, name): value
              for key, module in targets.items() for name, value in vars(module).items()}
    with tracing.Tracer(modules, IllConditionedWarning):
        for module, attr, _, _ in probes:
            wrapped = getattr(module, attr)
            assert wrapped is not before[id(module), attr], attr
            assert wrapped.__wrapped__ is before[id(module), attr], attr
    after = {(key, name): value
             for key, module in targets.items() for name, value in vars(module).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    # Every module the harness passes carries at least one probe.
    assert {id(m) for m in modules.values()} <= targets.keys()
