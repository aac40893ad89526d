"""The seeded app generator: determinism, ground-truth labels, the
pattern catalog end-to-end, negative controls, and the registry error."""

import pytest

from repro.core import analyze_module
from repro.corpus import (
    app,
    generate_app,
    generate_corpus,
    generated_app_index,
    generated_app_name,
    GeneratorConfig,
    GroundTruthLabel,
    label_manifest,
    labels_from_manifest,
    PATTERNS,
    UnknownAppError,
)
from repro.corpus.generator import _render, Pattern
from repro.lowering import lower_sources

CONFIG = GeneratorConfig(seed=42, count=12)


# -- determinism --------------------------------------------------------------


def test_same_seed_same_apps():
    first = generate_corpus(CONFIG)
    second = generate_corpus(CONFIG)
    assert [a.source for a in first] == [a.source for a in second]
    assert [a.labels for a in first] == [a.labels for a in second]
    assert label_manifest(CONFIG, first) == label_manifest(CONFIG, second)


def test_apps_are_independently_reproducible():
    # generate_app(config, i) must not depend on apps 0..i-1 having been
    # generated (workers regenerate single apps in isolation)
    corpus = generate_corpus(CONFIG)
    lone = generate_app(CONFIG, 7)
    assert lone.source == corpus[7].source
    assert lone.labels == corpus[7].labels


def test_different_seeds_differ():
    a = generate_corpus(GeneratorConfig(seed=1, count=6))
    b = generate_corpus(GeneratorConfig(seed=2, count=6))
    assert [x.source for x in a] != [y.source for y in b]


def test_app_names_encode_seed_and_index():
    name = generated_app_name(42, 3)
    assert name == "g42-0003"
    assert generated_app_index(name) == 3


def test_labels_point_at_the_marked_lines():
    for gen in generate_corpus(CONFIG):
        lines = gen.source.splitlines()
        for label in gen.labels:
            assert f"{label.field_name}." in lines[label.use_line - 1] \
                or f"{label.field_name} " in lines[label.use_line - 1]
            assert f"{label.field_name} = null" in lines[label.free_line - 1]


def test_manifest_round_trips():
    apps = generate_corpus(CONFIG)
    manifest = label_manifest(CONFIG, apps)
    assert manifest["seed"] == CONFIG.seed
    assert manifest["count"] == CONFIG.count
    assert GeneratorConfig.from_dict(manifest["config"]) == CONFIG
    flat = labels_from_manifest(manifest)
    assert flat == [label for a in apps for label in a.labels]
    assert all(isinstance(label, GroundTruthLabel) for label in flat)


# -- the pattern catalog, end-to-end ------------------------------------------


def _analyze_single_pattern(pattern: Pattern):
    source, (label,) = _render("single", "", [pattern], 0)
    module = lower_sources(source, module_name="single", seal=False)
    result = analyze_module(module)
    matched = [
        w for w in result.warnings
        if (w.fieldref.class_name, w.fieldref.field_name)
        == (label.class_name, label.field_name)
        and any(o.use.line == label.use_line
                and o.free.line == label.free_line
                for o in w.occurrences)
    ]
    return label, matched


def _case_id(pattern: Pattern) -> str:
    """These case ids predate the pattern table: the pattern name, then
    the name of the function that used to render the pattern."""
    short = {"mhb-lifecycle-benign": "lifecycle-benign",
             "if-guard-benign": "guard-benign"}.get(pattern.name, pattern.name)
    return f"{pattern.name}-_{short.replace('-', '_')}"


@pytest.mark.parametrize("pattern", PATTERNS, ids=_case_id)
def test_pattern_detected_with_expected_outcome(pattern):
    label, matched = _analyze_single_pattern(pattern)
    name = pattern.name
    assert matched, f"{name}: injected pair not detected"
    surviving = [w for w in matched if w.status == "remaining"]
    if label.expected == "surviving":
        assert surviving, f"{name}: expected to survive, was filtered"
        assert label.pair_type in {w.pair_type() for w in surviving}
    else:
        assert not surviving, f"{name}: expected filtered, survived"


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.name)
def test_pattern_marks_one_use_and_one_free(pattern):
    assert pattern.source.count("@u") == 1
    assert pattern.source.count("@f") == 1
    assert "$" not in pattern.template[0].replace("$i", "") \
        .replace("$v", "").replace("$b", "")


# -- negative control ---------------------------------------------------------


def test_clean_apps_produce_zero_warnings():
    # clean_ratio=1.0 forces every app clean; a clean app has no frees at
    # all, so even the *potential* warning set must be empty
    config = GeneratorConfig(seed=9, count=8, clean_ratio=1.0)
    for gen in generate_corpus(config):
        assert gen.clean and not gen.labels
        module = lower_sources(gen.source, module_name=gen.name, seal=False)
        result = analyze_module(module)
        assert not result.warnings, f"{gen.name}: {result.warnings}"


# -- the registry error (unknown --apps entry) --------------------------------


def test_registry_raises_self_describing_error():
    with pytest.raises(UnknownAppError) as excinfo:
        app("nosuchapp")
    message = str(excinfo.value)
    assert "nosuchapp" in message
    assert "connectbot" in message  # names the known apps
    assert isinstance(excinfo.value, KeyError)  # old callers still catch


def test_cli_unknown_app_exits_2_with_one_line(capsys):
    from repro.cli import main

    code = main(["corpus", "--apps", "nosuchapp", "--no-cache"])
    captured = capsys.readouterr()
    assert code == 2
    lines = [line for line in captured.err.splitlines() if line]
    assert len(lines) == 1
    assert "unknown corpus app 'nosuchapp'" in lines[0]
