"""The pattern-table generator against the reference generator.

``reference_generator.py`` is the generator that wrote each injected
pattern out as its own emitter function and recorded each label by hand.
The generator now renders every pattern from one table row and derives
its label from the row's ``@u``/``@f`` marks.  Over seeds and configs that
cover clean-only corpora, filler-heavy corpora and instance ids past 9,
both must produce the same source bytes, the same labels, the same
pattern lists, the same ``clean`` flags and the same label manifest.
"""

import pytest

import reference_generator
from repro.corpus import generator

CONFIGS = [
    dict(seed=42, count=200),
    dict(seed=1234, count=200),
    dict(seed=0, count=200),
    dict(seed=1, count=200),
    dict(seed=7, count=200),
    dict(seed=99, count=200),
    # instance ids reach 13: two-digit placeholders must not collide
    dict(seed=5, count=50, min_patterns=10, max_patterns=14),
    dict(seed=6, count=100, clean_ratio=1.0),
    dict(seed=8, count=100, clean_ratio=0.0, max_filler_classes=6),
]


def _describe(app) -> tuple:
    return (app.name, app.source, app.clean, list(app.patterns),
            [(label.app, label.to_dict()) for label in app.labels])


@pytest.mark.parametrize(
    "knobs", CONFIGS,
    ids=["-".join(f"{k}{v}" for k, v in knobs.items()) for knobs in CONFIGS])
def test_generated_corpus_matches_reference(knobs):
    config = generator.GeneratorConfig(**knobs)
    ref_config = reference_generator.GeneratorConfig(**knobs)
    apps = generator.generate_corpus(config)
    ref_apps = reference_generator.generate_corpus(ref_config)
    assert len(apps) == len(ref_apps) == config.count
    for app, ref in zip(apps, ref_apps):
        assert _describe(app) == _describe(ref), app.name
    assert (generator.label_manifest(config, apps)
            == reference_generator.label_manifest(ref_config, ref_apps))


def test_pattern_names_match_reference():
    assert generator.PATTERN_NAMES == reference_generator.PATTERN_NAMES
