"""The validator against the reference validator.

``reference_validator.py`` forked its simulator (``reference_simulator.py``)
with a deep copy of everything, the sealed program included, and its forks
recorded their exceptions on the simulator they were copied from.  The
validator now forks with :meth:`Simulator.fork`, which shares the program,
and each fork records its own exceptions.  For every surviving warning of
two registry apps and of the first generated apps of seed 42, at Table 1's
budget, both must reach the same verdict after the same number of
schedules, with the same exception and the same trace.
"""

import pytest

import reference_simulator
import reference_validator
from repro.core import analyze_module
from repro.corpus import app
from repro.corpus.generator import generate_app, GeneratorConfig
from repro.lowering import lower_sources
from repro.runtime import Simulator, validate_warning

BUDGET = dict(random_attempts=40, systematic_branches=15, max_decisions=800)


def verdicts(result, simulator, validate):
    program = result.program

    def make_sim():
        return simulator(program.module, program.manifest)

    return [
        (warning.key, verdict.confirmed, verdict.schedules_tried,
         verdict.exception, verdict.trace)
        for warning in result.remaining()
        for verdict in [validate(make_sim, warning, **BUDGET)]
    ]


def assert_validates_identically(result):
    expected = verdicts(result, reference_simulator.Simulator,
                        reference_validator.validate_warning)
    assert verdicts(result, Simulator, validate_warning) == expected


@pytest.mark.parametrize("name", ["aard", "connectbot"])
def test_registry_apps_validate_identically(name):
    spec = app(name)
    module = spec.compile()
    assert_validates_identically(analyze_module(module,
                                                spec.manifest_for(module)))


def test_generated_apps_validate_identically():
    config = GeneratorConfig(seed=42, count=200)
    for gen in (generate_app(config, index) for index in range(20)):
        module = lower_sources(gen.source, module_name=gen.name, seal=False)
        assert_validates_identically(analyze_module(module))
