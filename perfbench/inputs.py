"""Workload inputs, made from the benchmark's ``--seed``.

The program never sees a seed: it receives source text (registry apps
in a seeded order, or generated apps) exactly as a user would pass it.
Each input knows how to check an analysis result against its own
independent reference: the committed golden report for registry apps,
the generator's ground-truth labels for generated apps.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from common import GOLDEN_REPORT, report_warning_keys, warning_keys

#: default seeds per workload (the generated ones follow docs/corpus.md)
DEFAULT_SEEDS = {"paper-corpus": 0, "generated-jobs2": 42, "serve-mixed": 1234}
GENERATED_APPS = 200
#: share of serve-mixed requests that re-post an app already analyzed.
#: Warm and cold latencies are two far-apart modes; at exactly one half
#: the median would sit in the gap between them and jump from run to
#: run, so re-posts are a little under half.
SERVE_REPEAT_SHARE = 0.4
#: a repeat never names one of the newest apps, which may still be in flight
SERVE_REPEAT_LAG = 2


@dataclass
class App:
    """One app of a workload: its name, a source loader and a checker."""

    name: str
    #: the corpus-layer call producing the source (registry read/generate)
    load: Callable[[], str]
    #: registry entry (``manifest_for``), ``None`` for generated apps
    spec: Any = None
    #: generator output (ground-truth labels), ``None`` for registry apps
    generated: Any = None

    @property
    def path(self) -> str:
        return f"{self.name}.mjava"


class Golden:
    """``benchmarks/golden_report.json`` as ``app -> [(id, status)]``."""

    def __init__(self) -> None:
        with open(GOLDEN_REPORT) as handle:
            payload = json.load(handle)
        self.keys = {name: report_warning_keys(app)
                     for name, app in payload["apps"].items()}


def check_warnings(app: App, warnings, golden: Optional[Golden]) \
        -> Optional[str]:
    """Compare one app's warnings with its reference; ``None`` if equal.

    Registry apps: the golden report's warning ids and statuses (the
    ``repro diff`` view, metrics block ignored).  Generated apps:
    :func:`repro.report.score_generated` must score 100% -- every label
    detected with its expected status, no false survivor, no warning on
    a clean app.
    """
    if app.generated is None:
        expected = golden.keys.get(app.name) if golden else None
        if expected is None:
            return f"{app.name}: no golden entry"
        got = warning_keys(warnings)
        if got != expected:
            new = sorted(set(got) - set(expected))
            gone = sorted(set(expected) - set(got))
            return f"{app.name}: differs from golden (+{new[:2]} -{gone[:2]})"
        return None
    from repro.report import score_generated
    from repro.runner.serialize import ResultData

    score = score_generated([app.generated], [ResultData(warnings=warnings)])
    bad = [s.label.label_id for s in score.labels
           if not (s.detected and s.status_ok)]
    if bad or score.false_survivors or score.clean_violations:
        return (f"{app.name}: score below 100% (labels {bad[:2]}, "
                f"false survivors {len(score.false_survivors)}, "
                f"clean violations {len(score.clean_violations)})")
    return None


def seed_or_default(workload: str, seed: Optional[int]) -> int:
    return DEFAULT_SEEDS[workload] if seed is None else seed


def paper_apps(seed: int) -> List[App]:
    """The 27 registry apps (Table 1), in a seeded order."""
    from repro.corpus import all_apps

    specs = all_apps()
    random.Random(seed).shuffle(specs)
    return [App(spec.name, spec.source, spec=spec) for spec in specs]


def generator_config(seed: int, count: int = GENERATED_APPS):
    from repro.corpus import GeneratorConfig

    return GeneratorConfig(seed=seed, count=count)


def generated_app(gconfig, index: int) -> App:
    from repro.corpus.generator import generate_app

    gen = generate_app(gconfig, index)
    return App(gen.name, lambda: generate_app(gconfig, index).source,
               generated=gen)


def generated_apps(seed: int) -> List[App]:
    gconfig = generator_config(seed)
    return [generated_app(gconfig, i) for i in range(gconfig.count)]


def serve_stream(seed: int) -> Iterator[Tuple[App, bool]]:
    """Endless serve-mixed request stream: ``(app, is_repeat)``.

    About :data:`SERVE_REPEAT_SHARE` of the requests re-post an app
    posted earlier (a warm cache read); the rest are new generated apps
    (a cold analysis plus a cache write).
    """
    gconfig = generator_config(seed, count=1)
    rng = random.Random(seed)
    posted: List[App] = []
    while True:
        if len(posted) > 2 * SERVE_REPEAT_LAG \
                and rng.random() < SERVE_REPEAT_SHARE:
            yield posted[rng.randrange(len(posted) - SERVE_REPEAT_LAG)], True
        else:
            app = generated_app(gconfig, len(posted))
            posted.append(app)
            yield app, False


def distinct(stream: List[Tuple[App, bool]]) -> List[App]:
    """The apps of a stream prefix, first occurrence order."""
    return [app for app, repeat in stream if not repeat]


def request_body(app: App, client: str) -> Dict[str, Any]:
    return {"files": [{"path": app.path, "text": app.load()}],
            "wait": True, "client": client}
