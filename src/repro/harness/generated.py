"""Generated-corpus driver: analyze a seeded synthetic corpus and score
the pipeline against its ground-truth labels.

The generator (:mod:`repro.corpus.generator`) emits apps whose injected
use/free pairs are known exactly -- class, field, source lines, expected
pair type and expected surviving-vs-filtered status.  This driver fans
the generated apps out over the shared :class:`repro.runner.CorpusRunner`
(worker processes regenerate each app's source from ``(config, index)``,
so only the small generator config crosses the process boundary) and
hands the per-app :class:`~repro.runner.serialize.ResultData` views plus
the labels to :func:`repro.report.score.score_generated`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from .. import obs
from ..core import AnalysisConfig, analyze_app, AnalysisResult
from ..corpus.generator import (
    generate_app,
    generate_corpus,
    generated_app_index,
    GeneratedApp,
    GeneratorConfig,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runner import CorpusRunner
    from ..runner.serialize import ResultData


def analyze_generated_app(
    app_name: str,
    generator: Dict[str, Any],
    config: Optional[AnalysisConfig] = None,
) -> AnalysisResult:
    """Regenerate one app from its ``(config, index)`` coordinates and run
    the full pipeline on it (the generated-corpus analogue of
    :func:`repro.harness.table1.analyze_corpus_app`)."""
    gconfig = GeneratorConfig.from_dict(generator)
    gen = generate_app(gconfig, generated_app_index(app_name))
    obs.add("generator.labels", len(gen.labels))
    return analyze_app(gen.source, None, config, module_name=gen.name)


def generated_app_data(app_name: str,
                       params: Dict[str, Any]) -> Dict[str, Any]:
    """Worker payload for the ``generated`` task kind."""
    from ..runner.serialize import result_data_to_dict, result_to_data

    result = analyze_generated_app(
        app_name, params["generator"], params.get("config")
    )
    return result_data_to_dict(result_to_data(result))


def run_generated(
    runner: "CorpusRunner",
    gconfig: GeneratorConfig,
    config: Optional[AnalysisConfig] = None,
) -> Tuple[List[GeneratedApp], List[Optional["ResultData"]]]:
    """Generate the corpus and analyze every app through the runner.

    Returns the generated apps (with their labels) and the per-app
    results in the same order; a faulted app (``--keep-going``) yields
    ``None`` in the results list.
    """
    from ..runner.serialize import result_data_from_dict

    apps = generate_corpus(gconfig)
    telemetry = getattr(runner, "telemetry", None)
    if telemetry is not None:
        # a generated-corpus run is the canonical long run: name it on
        # the live /progress endpoint before the fan-out starts
        telemetry.set_phase(f"generated:{len(apps)}")
    payloads, _ = runner.run(
        "generated",
        [app.name for app in apps],
        {"config": config, "generator": gconfig.to_dict()},
    )
    results: List[Optional["ResultData"]] = [
        None if "error" in payload else result_data_from_dict(payload)
        for payload in payloads
    ]
    return apps, results
