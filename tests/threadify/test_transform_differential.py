"""The table-driven threadifier against the reference transform.

``reference_transform.py`` is the threadifier that spelled out its stub
rewrites, registry fields, dummy-main drains and posted-callback loops
one API at a time.  The threadifier now derives them from ``API_TABLE``
and one channel table.  On the registry apps and the generated apps of
two seeds both must produce the same sealed program (every instruction's
uid, allocation site, method and ``repr``), the same thread forest, the
same regions and API sites in the same order, the same synthetic classes
and manifest, and the same ``$Registry`` fields (compared as a set: the
field order is not part of the contract).  The four rewritten framework
variants must be identical too.
"""

import pytest

import reference_transform
from repro.corpus import all_apps
from repro.corpus.generator import GeneratorConfig, generate_corpus
from repro.lowering import lower_sources
from repro.threadify import REGISTRY_CLASS, threadify
from repro.threadify.transform import threadified_framework
from test_shared_framework import sealed_sequence, snapshot, VARIANTS


def describe(program) -> dict:
    """Everything threadification decides, in comparable form."""
    module = program.module
    registry = module.classes[REGISTRY_CLASS]
    return {
        "classes": list(module.classes),
        "sealed": sealed_sequence(module),
        "forest": [
            (node.node_id, node.kind, node.receiver_class, node.method_name,
             node.category, node.component,
             None if node.parent is None else node.parent.node_id,
             node.post_site, node.looper, node.group_key)
            for node in program.forest
        ],
        "regions": list(program.regions.items()),
        "api_sites": [
            (key, site.uid, site.method.qualified_name, site.invoke.uid,
             site.spec)
            for key, site in program.api_sites.items()
        ],
        "synthetic": program.synthetic_classes,
        "manifest": list(program.manifest.components.items()),
        "registry": {(f.name, repr(f.type), f.is_static)
                     for f in registry.fields.values()},
        "callgraph": program.callgraph.edges,
    }


def assert_agrees(name, source, manifest_for):
    def run(transform):
        module = lower_sources(source, module_name=name, seal=False)
        return describe(transform(module, manifest_for(module)))

    expected = run(reference_transform.threadify)
    actual = run(threadify)
    for key in expected:
        assert actual[key] == expected[key], (name, key)


@pytest.mark.parametrize("app", all_apps(), ids=lambda app: app.name)
def test_registry_apps_threadify_identically(app):
    assert_agrees(app.name, app.source(), app.manifest_for)


@pytest.mark.parametrize("seed", [42, 1234])
def test_generated_apps_threadify_identically(seed):
    for app in generate_corpus(GeneratorConfig(seed=seed, count=200)):
        assert_agrees(app.name, app.source, lambda module: None)


@pytest.mark.parametrize("variant", VARIANTS)
def test_rewritten_frameworks_are_identical(variant):
    expected = reference_transform.threadified_framework(*variant)
    actual = threadified_framework(*variant)
    assert actual is not expected
    assert sealed_sequence(actual) == sealed_sequence(expected)
    assert snapshot(actual) == snapshot(expected)
