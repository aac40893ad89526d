"""Seeded property-based generator of MiniDroid apps with ground-truth labels.

Each generated app composes a lifecycle skeleton with a random selection of
*injected* use-after-free patterns modeled on the paper's Figures 1 and 4:
service-connection teardowns (Fig. 1(a)/(b)), the looper-vs-pool race
(Fig. 1(c)), posted-callback-vs-destroy races, fragment transaction and
ordered-broadcast orderings, and foreground-service callback gaps -- plus
deliberately *benign* variants that each exercise one sound filter
(MHB-Lifecycle, MHB-Fragment, MHB-OrderedBroadcast, If-Guard,
Intra-Allocation).

Each pattern is one :class:`Pattern` row: its MiniDroid source with the
use and free lines marked.  Every injection is recorded as a
:class:`GroundTruthLabel`, derived from the row, carrying the field, the
exact use/free source lines, the expected pair type and whether
the pipeline is expected to keep (``surviving``) or remove (``filtered``)
the warning -- so generated corpora double as recall/precision oracles for
the whole pipeline (see ``repro.report.score``).

Determinism contract: ``generate_app(config, index)`` depends only on
``(config, index)``.  The per-app stream is ``random.Random(seed *
1_000_003 + index)``, so apps are independently reproducible in worker
processes and across ``--jobs`` settings; sources and label manifests are
byte-identical run to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Sequence, Tuple

from ..obs import add as obs_add

#: Label manifest schema version.
LABEL_SCHEMA = 1

EXPECT_SURVIVING = "surviving"
EXPECT_FILTERED = "filtered"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of one generated corpus (all participate in cache keys)."""

    seed: int = 42
    count: int = 20
    #: patterns injected per non-clean app (inclusive range)
    min_patterns: int = 1
    max_patterns: int = 4
    #: fraction of apps generated with no injected pattern at all
    clean_ratio: float = 0.25
    #: up to this many inert filler classes pad each app
    max_filler_classes: int = 2

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "count": self.count,
            "min_patterns": self.min_patterns,
            "max_patterns": self.max_patterns,
            "clean_ratio": self.clean_ratio,
            "max_filler_classes": self.max_filler_classes,
        }

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "GeneratorConfig":
        return GeneratorConfig(
            seed=int(payload["seed"]),
            count=int(payload["count"]),
            min_patterns=int(payload.get("min_patterns", 1)),
            max_patterns=int(payload.get("max_patterns", 4)),
            clean_ratio=float(payload.get("clean_ratio", 0.25)),
            max_filler_classes=int(payload.get("max_filler_classes", 2)),
        )


def generated_app_name(seed: int, index: int) -> str:
    return f"g{seed}-{index:04d}"


def generated_app_index(name: str) -> int:
    """Inverse of :func:`generated_app_name` (the index part)."""
    return int(name.rsplit("-", 1)[1])


# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroundTruthLabel:
    """One injected use/free pair and what the pipeline should say."""

    app: str
    class_name: str        #: class declaring the raced field
    field_name: str
    use_line: int          #: 1-based source line of the injected use
    free_line: int         #: 1-based source line of the injected free
    pattern: str           #: catalog name of the injected pattern
    pair_type: str         #: expected Table-1 origin category
    expected: str          #: ``surviving`` or ``filtered``

    @property
    def label_id(self) -> str:
        return (f"{self.app}::{self.class_name}.{self.field_name}"
                f"::{self.use_line}::{self.free_line}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.label_id,
            "class": self.class_name,
            "field": self.field_name,
            "use_line": self.use_line,
            "free_line": self.free_line,
            "pattern": self.pattern,
            "pair_type": self.pair_type,
            "expected": self.expected,
        }

    @staticmethod
    def from_dict(app: str, payload: Dict[str, Any]) -> "GroundTruthLabel":
        return GroundTruthLabel(
            app=app,
            class_name=payload["class"],
            field_name=payload["field"],
            use_line=int(payload["use_line"]),
            free_line=int(payload["free_line"]),
            pattern=payload["pattern"],
            pair_type=payload["pair_type"],
            expected=payload["expected"],
        )


@dataclass
class GeneratedApp:
    """One generated MiniDroid application plus its ground truth."""

    name: str
    source: str
    labels: List[GroundTruthLabel] = field(default_factory=list)
    clean: bool = False
    patterns: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Source parts
# ---------------------------------------------------------------------------
#
# A pattern's source is MiniDroid text for instance ``$i``.  Rendering
# replaces ``$i`` by the instance id, ``$v`` by its content-view id
# (100 + i) and ``$b`` by its button-view id (200 + i).  The use line
# starts with ``@u`` and the free line with ``@f``; the marks are stripped
# and their line numbers become the label.  Every part below ends each of
# its lines with a newline; a class ends with one blank line.

_ON_CREATE = "onCreate(Bundle savedInstanceState)"
_FD = "  Data$i fd$i;"
_NEW_FD = "    fd$i = new Data$i();"
_USE = "@u    fd$i.work();"
_FREE = "@f    fd$i = null;"
_OWNER_USE = "@u    owner.fd$i.work();"
_OWNER_FREE = "@f    owner.fd$i = null;"


def _method(signature: str, *body: str) -> str:
    """A method; one with no body is written on a single line."""
    if not body:
        return f"  {signature} {{ }}"
    return "\n".join((f"  {signature} {{", *body, "  }"))


def _callback(signature: str, *body: str) -> str:
    """A framework callback whose body first calls its super."""
    name, params = signature[:-1].split("(")
    args = ", ".join(p.split()[-1] for p in params.split(", ") if p)
    return _method(f"void {signature}", f"    super.{name}({args});", *body)


def _class(header: str, *body: str) -> str:
    return "\n".join((f"{header} {{", *body, "}", "", ""))


def _component(header: str, fields: Sequence[str], *methods: str) -> str:
    """A class of fields, a blank line, then methods between blank lines."""
    return _class(header, *fields, "", "\n\n".join(methods))


def _owned(header: str, *methods: str) -> str:
    """A helper class that reaches its activity through ``owner``."""
    return _component(header, ["  Act$i owner;"], *methods)


def _activity(fields: Sequence[str], *methods: str) -> str:
    return _component("class Act$i extends Activity", fields, *methods)


def _on_create(*body: str) -> str:
    """An activity's onCreate: super call and content view, then ``body``."""
    return _callback(_ON_CREATE, "    setContentView($v);", *body)


def _service(*methods: str) -> str:
    return _component("class Svc$i extends Service", [_FD], *methods)


#: Every instance starts with the class of its raced field.
_DATA = _class("class Data$i", _method("void work()"))

#: A ServiceConnection whose disconnect callback frees ``Act$i.fd$i``.
_CONNECTION = _owned(
    "class Conn$i implements ServiceConnection",
    _method("public void onServiceConnected(ComponentName name, "
            "IBinder service)"),
    _method("public void onServiceDisconnected(ComponentName name)",
            _OWNER_FREE),
)

_BIND_ON_START = _callback(
    "onStart()",
    "    Conn$i conn = new Conn$i();",
    "    conn.owner = this;",
    "    bindService(new Intent(\"gen.Conn$i\"), conn, 0);",
)


def _posted_click(statement: str) -> str:
    """An onClick that posts a Runnable running ``statement``."""
    return _method("void onClick(View v)",
                   "    hd$i.post(new Runnable() {",
                   "      public void run() {",
                   statement,
                   "      }",
                   "    });")


def _commit_fragment(container: int, owner: bool) -> Tuple[str, ...]:
    """onCreate lines that commit ``Frag$i`` into ``container``."""
    return ("    Frag$i frag = new Frag$i();",
            *(("    frag.owner = this;",) if owner else ()),
            "    FragmentManager fm$i = getFragmentManager();",
            "    FragmentTransaction ft$i = fm$i.beginTransaction();",
            f"    ft$i.add({container}, frag);",
            "    ft$i.commit();")


def _receiver(name: str, statement: str) -> str:
    return _owned(f"class {name}$i extends BroadcastReceiver",
                  _method("public void onReceive(Context context, "
                          "Intent intent)", statement))


def _ordered_broadcast(registered: str, result: str) -> str:
    """An activity registers ``Reg$i``, then sends an ordered broadcast
    whose result receiver is ``Res$i``: the registered receiver runs
    ``registered`` before the result receiver runs ``result``."""
    return (_receiver("Reg", registered) + _receiver("Res", result)
            + _activity([_FD, "  Reg$i reg$i;"], _on_create(
                _NEW_FD,
                "    reg$i = new Reg$i();",
                "    reg$i.owner = this;",
                "    registerReceiver(reg$i, "
                "new IntentFilter(\"gen.ORDERED$i\"));",
                "    Res$i res = new Res$i();",
                "    res.owner = this;",
                "    sendOrderedBroadcast(new Intent(\"gen.ORDERED$i\"), "
                "res);")))


# ---------------------------------------------------------------------------
# Pattern catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pattern:
    """One injectable use/free pair on field ``fd$i`` of ``{owner}$i``.

    Instances never share classes or fields, so patterns compose within
    one app without perturbing each other's ground truth.
    """

    name: str
    owner: str        #: prefix of the class declaring ``fd$i``
    pair_type: str    #: expected Table-1 origin category
    expected: str     #: ``surviving`` or ``filtered``
    source: str       #: the classes after ``Data$i``, with both marks

    @cached_property
    def template(self) -> Tuple[str, int, int, int]:
        """The instance text without marks, its line count, and the
        1-based lines of the use and the free within it."""
        text = _DATA + self.source
        use, free = (text.count("\n", 0, text.index(mark)) + 1
                     for mark in ("@u", "@f"))
        text = text.replace("@u", "").replace("@f", "")
        return text, text.count("\n"), use, free


#: The pattern catalog, ordered; rng indexes into this tuple.
PATTERNS: Tuple[Pattern, ...] = (
    # Figure 1(a): an unguarded EC use races the connection teardown.
    Pattern("fig1a-service-conn", "Act", "EC-PC", EXPECT_SURVIVING,
            _CONNECTION + _activity(
                [_FD], _on_create(_NEW_FD), _BIND_ON_START,
                _method("void onCreateContextMenu(ContextMenu menu, View v, "
                        "ContextMenuInfo menuInfo)", _USE))),
    # Figure 1(b): the guard runs on the looper, the use is deferred.
    Pattern("fig1b-deferred-guard", "Act", "PC-PC", EXPECT_SURVIVING,
            _CONNECTION + _activity(
                [_FD, "  Handler hd$i;", "  View btn$i;"],
                _on_create("    hd$i = new Handler();",
                           _NEW_FD,
                           "    btn$i = findViewById($b);",
                           "    btn$i.setOnClickListener("
                           "new OnClickListener() {",
                           "      public void onClick(View v) {",
                           "        if (fd$i != null) {",
                           "          hd$i.post(new Runnable() {",
                           "            public void run() {",
                           "@u              fd$i.work();",
                           "            }",
                           "          });",
                           "        }",
                           "      }",
                           "    });"),
                _BIND_ON_START)),
    # Figure 1(c): a pool-thread use against a posted looper-side free.
    Pattern("fig1c-looper-pool", "Act", "C-NT", EXPECT_SURVIVING,
            _owned("class Task$i implements Runnable",
                   _method("public void run()", _OWNER_USE))
            + _activity(
                [_FD, "  ExecutorService pool$i;", "  Handler hd$i;"],
                _on_create("    hd$i = new Handler();", _NEW_FD),
                _callback("onResume()",
                          "    Task$i task = new Task$i();",
                          "    task.owner = this;",
                          "    pool$i.execute(task);"),
                _posted_click("@f        fd$i = null;"))),
    # A posted refresh races its activity's own onDestroy teardown.
    Pattern("posted-vs-destroy", "Act", "EC-PC", EXPECT_SURVIVING,
            _activity([_FD, "  Handler hd$i;"],
                      _on_create("    hd$i = new Handler();", _NEW_FD),
                      _posted_click("@u        fd$i.work();"),
                      _callback("onDestroy()", _FREE))),
    # A committed fragment's onResume races the host activity's destroy.
    Pattern("fragment-activity-race", "Act", "EC-PC", EXPECT_SURVIVING,
            _owned("class Frag$i extends Fragment",
                   _callback("onResume()", _OWNER_USE))
            + _activity([_FD],
                        _on_create(_NEW_FD, *_commit_fragment(1, True)),
                        _callback("onDestroy()", _FREE))),
    # The registered receiver frees what the result receiver still uses.
    Pattern("ordered-broadcast-teardown", "Act", "PC-PC", EXPECT_SURVIVING,
            _ordered_broadcast(_OWNER_FREE, _OWNER_USE)),
    # onTaskRemoved and onTimeout have no mutual order on a service.
    Pattern("foreground-service-race", "Svc", "EC-EC", EXPECT_SURVIVING,
            _service(_callback("onCreate()", _NEW_FD,
                               "    startForeground(1, new Notification());"),
                     _callback("onTaskRemoved(Intent rootIntent)", _USE),
                     _callback("onTimeout(int startId)", _FREE))),
    # onStart must happen before onDestroy: MHB-Lifecycle prunes.
    Pattern("mhb-lifecycle-benign", "Act", "EC-EC", EXPECT_FILTERED,
            _activity([_FD], _on_create(_NEW_FD),
                      _callback("onStart()", _USE),
                      _callback("onDestroy()", _FREE))),
    # A same-looper null check protects the use: If-Guard prunes.
    Pattern("if-guard-benign", "Act", "EC-EC", EXPECT_FILTERED,
            _activity([_FD], _on_create(_NEW_FD),
                      _callback("onResume()",
                                "    if (fd$i != null) {",
                                "@u      fd$i.work();",
                                "    }"),
                      _callback("onStop()", _FREE))),
    # The use sees the fresh allocation stored just above it: IA prunes.
    Pattern("fresh-alloc-benign", "Act", "EC-EC", EXPECT_FILTERED,
            _activity([_FD], _callback("onResume()", _NEW_FD, _USE),
                      _callback("onStop()", _FREE))),
    # onStart before onDestroy inside one fragment: MHB-Fragment prunes.
    Pattern("fragment-benign", "Frag", "PC-PC", EXPECT_FILTERED,
            _component("class Frag$i extends Fragment", [_FD],
                       _callback("onAttach(Activity activity)", _NEW_FD),
                       _callback("onStart()", _USE),
                       _callback("onDestroy()", _FREE))
            + _activity([], _on_create(*_commit_fragment(2, False)))),
    # The registered receiver's use precedes the result receiver's free:
    # MHB-OrderedBroadcast prunes.
    Pattern("ordered-broadcast-benign", "Act", "PC-PC", EXPECT_FILTERED,
            _ordered_broadcast(_OWNER_USE, _OWNER_FREE)),
    # onTimeout must happen before onDestroy: the widened SERVICE_MHB
    # prunes.
    Pattern("foreground-benign", "Svc", "EC-EC", EXPECT_FILTERED,
            _service(_callback("onCreate()", _NEW_FD),
                     _callback("onTimeout(int startId)", _USE),
                     _callback("onDestroy()", _FREE))),
)

PATTERN_NAMES: Tuple[str, ...] = tuple(p.name for p in PATTERNS)


# ---------------------------------------------------------------------------
# App assembly
# ---------------------------------------------------------------------------

#: The always-present lifecycle skeleton.  It never nulls a reference
#: field, so it contributes no free events (clean apps stay warning-free).
_SKELETON = _class("class BootState", _method("void warm()")) + _component(
    "class MainActivity extends Activity",
    ["  BootState boot;", "  View statusView;"],
    _callback(_ON_CREATE,
              "    setContentView(1);",
              "    boot = new BootState();",
              "    statusView = findViewById(7);",
              "    boot.warm();"),
    _callback("onResume()", "    boot.warm();"),
)

#: An inert class padding the app.
_FILLER = _class("class Util$i", _method("void tick()"),
                 _method("void tock()"))


def _instantiate(template: str, i: int) -> str:
    return (template.replace("$i", str(i)).replace("$v", str(100 + i))
            .replace("$b", str(200 + i)))


def _render(app: str, header: str, patterns: Sequence[Pattern],
            fillers: int) -> Tuple[str, List[GroundTruthLabel]]:
    """The source of ``header``, the skeleton, instance ``i`` of
    ``patterns[i]`` for each ``i`` and ``fillers`` filler classes, with
    one label per instance."""
    parts = [header, _SKELETON]
    lines = header.count("\n") + _SKELETON.count("\n")
    labels = []
    for i, pattern in enumerate(patterns):
        text, height, use, free = pattern.template
        parts.append(_instantiate(text, i))
        labels.append(GroundTruthLabel(
            app, f"{pattern.owner}{i}", f"fd{i}", lines + use, lines + free,
            pattern.name, pattern.pair_type, pattern.expected))
        lines += height
    parts.extend(_instantiate(_FILLER, j) for j in range(fillers))
    return "".join(parts), labels


def _app_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def generate_app(config: GeneratorConfig, index: int) -> GeneratedApp:
    """Generate app ``index`` of the corpus -- reproducible in isolation."""
    rng = _app_rng(config.seed, index)
    name = generated_app_name(config.seed, index)
    clean = rng.random() < config.clean_ratio
    header = (f"// {name} -- generated MiniDroid app "
              f"(seed {config.seed}, index {index}).\n")
    if clean:
        header += "// clean: no injected pattern; zero warnings expected.\n"
    patterns: List[Pattern] = []
    if not clean:
        k = rng.randint(config.min_patterns, config.max_patterns)
        patterns = [PATTERNS[rng.randrange(len(PATTERNS))] for _ in range(k)]
    fillers = rng.randint(0, config.max_filler_classes)
    source, labels = _render(name, header + "\n", patterns, fillers)
    return GeneratedApp(name=name, source=source, labels=labels, clean=clean,
                        patterns=[p.name for p in patterns])


def generate_corpus(config: GeneratorConfig) -> List[GeneratedApp]:
    """All ``config.count`` apps, in index order."""
    apps = [generate_app(config, index) for index in range(config.count)]
    obs_add("generator.apps", len(apps))
    obs_add("generator.clean_apps", sum(1 for a in apps if a.clean))
    obs_add("generator.labels", sum(len(a.labels) for a in apps))
    return apps


# ---------------------------------------------------------------------------
# Label manifest
# ---------------------------------------------------------------------------


def label_manifest(config: GeneratorConfig,
                   apps: List[GeneratedApp]) -> Dict[str, Any]:
    """The JSON-safe ground-truth manifest for a generated corpus."""
    return {
        "schema": LABEL_SCHEMA,
        "seed": config.seed,
        "count": config.count,
        "config": config.to_dict(),
        "apps": [
            {
                "name": app.name,
                "clean": app.clean,
                "patterns": list(app.patterns),
                "labels": [label.to_dict() for label in app.labels],
            }
            for app in apps
        ],
    }


def labels_from_manifest(payload: Dict[str, Any]) -> List[GroundTruthLabel]:
    """Flatten a manifest back into label objects."""
    labels: List[GroundTruthLabel] = []
    for entry in payload.get("apps", ()):
        for label in entry.get("labels", ()):
            labels.append(GroundTruthLabel.from_dict(entry["name"], label))
    return labels
