"""The hand-written-emitter app generator, kept as a test oracle.

``repro.corpus.generator`` now renders every injected pattern from one
row of its pattern table and derives each ground-truth label from the
row's marks; the differential test (``test_pattern_table_differential.py``)
checks that both produce the same sources, labels, pattern lists and
manifests.  The code below is the original, unchanged apart from its
imports.

Seeded property-based generator of MiniDroid apps with ground-truth labels.

Each generated app composes a lifecycle skeleton with a random selection of
*injected* use-after-free patterns modeled on the paper's Figures 1 and 4:
service-connection teardowns (Fig. 1(a)/(b)), the looper-vs-pool race
(Fig. 1(c)), posted-callback-vs-destroy races, fragment transaction and
ordered-broadcast orderings, and foreground-service callback gaps -- plus
deliberately *benign* variants that each exercise one sound filter
(MHB-Lifecycle, MHB-Fragment, MHB-OrderedBroadcast, If-Guard,
Intra-Allocation).

Every injection is recorded as a :class:`GroundTruthLabel` carrying the
field, the exact use/free source lines, the expected pair type and whether
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
from typing import Any, Callable, Dict, List, Tuple

from repro.obs import add as obs_add

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
# Source rendering
# ---------------------------------------------------------------------------


class _Source:
    """Line-accumulating renderer that records marked line numbers."""

    def __init__(self) -> None:
        self._lines: List[str] = []
        self.marks: Dict[str, int] = {}

    def line(self, text: str = "") -> None:
        self._lines.append(text)

    def lines(self, *texts: str) -> None:
        self._lines.extend(texts)

    def mark(self, key: str, text: str) -> None:
        self._lines.append(text)
        self.marks[key] = len(self._lines)

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


@dataclass
class _Injection:
    """A pattern's pending label: resolved to lines after rendering."""

    class_name: str
    field_name: str
    use_key: str
    free_key: str
    pattern: str
    pair_type: str
    expected: str

    def resolve(self, app: str, marks: Dict[str, int]) -> GroundTruthLabel:
        return GroundTruthLabel(
            app=app,
            class_name=self.class_name,
            field_name=self.field_name,
            use_line=marks[self.use_key],
            free_line=marks[self.free_key],
            pattern=self.pattern,
            pair_type=self.pair_type,
            expected=self.expected,
        )


# ---------------------------------------------------------------------------
# Pattern catalog
# ---------------------------------------------------------------------------
#
# Each emitter appends self-contained classes for instance ``i`` and
# returns the injection record.  Instances never share fields, so patterns
# compose within one app without perturbing each other's ground truth.


def _data_class(src: _Source, i: int) -> None:
    src.line(f"class Data{i} {{")
    src.line("  void work() { }")
    src.line("}")
    src.line()


def _connection_class(src: _Source, i: int, free_key: str) -> None:
    """A ServiceConnection whose disconnect callback frees ``Act{i}.fd{i}``."""
    src.line(f"class Conn{i} implements ServiceConnection {{")
    src.line(f"  Act{i} owner;")
    src.line()
    src.line("  public void onServiceConnected(ComponentName name, "
             "IBinder service) { }")
    src.line()
    src.line("  public void onServiceDisconnected(ComponentName name) {")
    src.mark(free_key, f"    owner.fd{i} = null;")
    src.line("  }")
    src.line("}")
    src.line()


def _bind_in_on_start(src: _Source, i: int) -> None:
    src.line("  void onStart() {")
    src.line("    super.onStart();")
    src.line(f"    Conn{i} conn = new Conn{i}();")
    src.line("    conn.owner = this;")
    src.line(f"    bindService(new Intent(\"gen.Conn{i}\"), conn, 0);")
    src.line("  }")


def _fig1a_service_conn(src: _Source, i: int) -> _Injection:
    """Figure 1(a): an unguarded EC use races the connection teardown."""
    _data_class(src, i)
    _connection_class(src, i, f"f{i}")
    src.line(f"class Act{i} extends Activity {{")
    src.line(f"  Data{i} fd{i};")
    src.line()
    src.line("  void onCreate(Bundle savedInstanceState) {")
    src.line("    super.onCreate(savedInstanceState);")
    src.line(f"    setContentView({100 + i});")
    src.line(f"    fd{i} = new Data{i}();")
    src.line("  }")
    src.line()
    _bind_in_on_start(src, i)
    src.line()
    src.line("  void onCreateContextMenu(ContextMenu menu, View v, "
             "ContextMenuInfo menuInfo) {")
    src.mark(f"u{i}", f"    fd{i}.work();")
    src.line("  }")
    src.line("}")
    src.line()
    return _Injection(f"Act{i}", f"fd{i}", f"u{i}", f"f{i}",
                      "fig1a-service-conn", "EC-PC", EXPECT_SURVIVING)


def _fig1b_deferred_guard(src: _Source, i: int) -> _Injection:
    """Figure 1(b): the guard runs on the looper, the use is deferred."""
    _data_class(src, i)
    _connection_class(src, i, f"f{i}")
    src.line(f"class Act{i} extends Activity {{")
    src.line(f"  Data{i} fd{i};")
    src.line(f"  Handler hd{i};")
    src.line(f"  View btn{i};")
    src.line()
    src.line("  void onCreate(Bundle savedInstanceState) {")
    src.line("    super.onCreate(savedInstanceState);")
    src.line(f"    setContentView({100 + i});")
    src.line(f"    hd{i} = new Handler();")
    src.line(f"    fd{i} = new Data{i}();")
    src.line(f"    btn{i} = findViewById({200 + i});")
    src.line(f"    btn{i}.setOnClickListener(new OnClickListener() {{")
    src.line("      public void onClick(View v) {")
    src.line(f"        if (fd{i} != null) {{")
    src.line(f"          hd{i}.post(new Runnable() {{")
    src.line("            public void run() {")
    src.mark(f"u{i}", f"              fd{i}.work();")
    src.line("            }")
    src.line("          });")
    src.line("        }")
    src.line("      }")
    src.line("    });")
    src.line("  }")
    src.line()
    _bind_in_on_start(src, i)
    src.line("}")
    src.line()
    return _Injection(f"Act{i}", f"fd{i}", f"u{i}", f"f{i}",
                      "fig1b-deferred-guard", "PC-PC", EXPECT_SURVIVING)


def _fig1c_looper_pool(src: _Source, i: int) -> _Injection:
    """Figure 1(c): a pool-thread use against a posted looper-side free."""
    _data_class(src, i)
    src.line(f"class Task{i} implements Runnable {{")
    src.line(f"  Act{i} owner;")
    src.line()
    src.line("  public void run() {")
    src.mark(f"u{i}", f"    owner.fd{i}.work();")
    src.line("  }")
    src.line("}")
    src.line()
    src.line(f"class Act{i} extends Activity {{")
    src.line(f"  Data{i} fd{i};")
    src.line(f"  ExecutorService pool{i};")
    src.line(f"  Handler hd{i};")
    src.line()
    src.line("  void onCreate(Bundle savedInstanceState) {")
    src.line("    super.onCreate(savedInstanceState);")
    src.line(f"    setContentView({100 + i});")
    src.line(f"    hd{i} = new Handler();")
    src.line(f"    fd{i} = new Data{i}();")
    src.line("  }")
    src.line()
    src.line("  void onResume() {")
    src.line("    super.onResume();")
    src.line(f"    Task{i} task = new Task{i}();")
    src.line("    task.owner = this;")
    src.line(f"    pool{i}.execute(task);")
    src.line("  }")
    src.line()
    src.line("  void onClick(View v) {")
    src.line(f"    hd{i}.post(new Runnable() {{")
    src.line("      public void run() {")
    src.mark(f"f{i}", f"        fd{i} = null;")
    src.line("      }")
    src.line("    });")
    src.line("  }")
    src.line("}")
    src.line()
    return _Injection(f"Act{i}", f"fd{i}", f"u{i}", f"f{i}",
                      "fig1c-looper-pool", "C-NT", EXPECT_SURVIVING)


def _posted_vs_destroy(src: _Source, i: int) -> _Injection:
    """A posted refresh races its activity's own onDestroy teardown."""
    _data_class(src, i)
    src.line(f"class Act{i} extends Activity {{")
    src.line(f"  Data{i} fd{i};")
    src.line(f"  Handler hd{i};")
    src.line()
    src.line("  void onCreate(Bundle savedInstanceState) {")
    src.line("    super.onCreate(savedInstanceState);")
    src.line(f"    setContentView({100 + i});")
    src.line(f"    hd{i} = new Handler();")
    src.line(f"    fd{i} = new Data{i}();")
    src.line("  }")
    src.line()
    src.line("  void onClick(View v) {")
    src.line(f"    hd{i}.post(new Runnable() {{")
    src.line("      public void run() {")
    src.mark(f"u{i}", f"        fd{i}.work();")
    src.line("      }")
    src.line("    });")
    src.line("  }")
    src.line()
    src.line("  void onDestroy() {")
    src.line("    super.onDestroy();")
    src.mark(f"f{i}", f"    fd{i} = null;")
    src.line("  }")
    src.line("}")
    src.line()
    return _Injection(f"Act{i}", f"fd{i}", f"u{i}", f"f{i}",
                      "posted-vs-destroy", "EC-PC", EXPECT_SURVIVING)


def _commit_fragment(src: _Source, i: int, container: int,
                     owner: bool) -> None:
    """onCreate body lines that commit ``Frag{i}`` via a transaction."""
    src.line(f"    Frag{i} frag = new Frag{i}();")
    if owner:
        src.line("    frag.owner = this;")
    src.line(f"    FragmentManager fm{i} = getFragmentManager();")
    src.line(f"    FragmentTransaction ft{i} = fm{i}.beginTransaction();")
    src.line(f"    ft{i}.add({container}, frag);")
    src.line(f"    ft{i}.commit();")


def _fragment_activity_race(src: _Source, i: int) -> _Injection:
    """A committed fragment's onResume races the host activity's destroy."""
    _data_class(src, i)
    src.line(f"class Frag{i} extends Fragment {{")
    src.line(f"  Act{i} owner;")
    src.line()
    src.line("  void onResume() {")
    src.line("    super.onResume();")
    src.mark(f"u{i}", f"    owner.fd{i}.work();")
    src.line("  }")
    src.line("}")
    src.line()
    src.line(f"class Act{i} extends Activity {{")
    src.line(f"  Data{i} fd{i};")
    src.line()
    src.line("  void onCreate(Bundle savedInstanceState) {")
    src.line("    super.onCreate(savedInstanceState);")
    src.line(f"    setContentView({100 + i});")
    src.line(f"    fd{i} = new Data{i}();")
    _commit_fragment(src, i, 1, owner=True)
    src.line("  }")
    src.line()
    src.line("  void onDestroy() {")
    src.line("    super.onDestroy();")
    src.mark(f"f{i}", f"    fd{i} = null;")
    src.line("  }")
    src.line("}")
    src.line()
    return _Injection(f"Act{i}", f"fd{i}", f"u{i}", f"f{i}",
                      "fragment-activity-race", "EC-PC", EXPECT_SURVIVING)


def _ordered_broadcast_teardown(src: _Source, i: int) -> _Injection:
    """The registered receiver frees what the result receiver still uses."""
    _data_class(src, i)
    src.line(f"class Reg{i} extends BroadcastReceiver {{")
    src.line(f"  Act{i} owner;")
    src.line()
    src.line("  public void onReceive(Context context, Intent intent) {")
    src.mark(f"f{i}", f"    owner.fd{i} = null;")
    src.line("  }")
    src.line("}")
    src.line()
    src.line(f"class Res{i} extends BroadcastReceiver {{")
    src.line(f"  Act{i} owner;")
    src.line()
    src.line("  public void onReceive(Context context, Intent intent) {")
    src.mark(f"u{i}", f"    owner.fd{i}.work();")
    src.line("  }")
    src.line("}")
    src.line()
    src.line(f"class Act{i} extends Activity {{")
    src.line(f"  Data{i} fd{i};")
    src.line(f"  Reg{i} reg{i};")
    src.line()
    src.line("  void onCreate(Bundle savedInstanceState) {")
    src.line("    super.onCreate(savedInstanceState);")
    src.line(f"    setContentView({100 + i});")
    src.line(f"    fd{i} = new Data{i}();")
    src.line(f"    reg{i} = new Reg{i}();")
    src.line(f"    reg{i}.owner = this;")
    src.line(f"    registerReceiver(reg{i}, "
             f"new IntentFilter(\"gen.ORDERED{i}\"));")
    src.line(f"    Res{i} res = new Res{i}();")
    src.line("    res.owner = this;")
    src.line(f"    sendOrderedBroadcast(new Intent(\"gen.ORDERED{i}\"), "
             "res);")
    src.line("  }")
    src.line("}")
    src.line()
    return _Injection(f"Act{i}", f"fd{i}", f"u{i}", f"f{i}",
                      "ordered-broadcast-teardown", "PC-PC", EXPECT_SURVIVING)


def _foreground_service_race(src: _Source, i: int) -> _Injection:
    """onTaskRemoved and onTimeout have no mutual order on a service."""
    _data_class(src, i)
    src.line(f"class Svc{i} extends Service {{")
    src.line(f"  Data{i} fd{i};")
    src.line()
    src.line("  void onCreate() {")
    src.line("    super.onCreate();")
    src.line(f"    fd{i} = new Data{i}();")
    src.line("    startForeground(1, new Notification());")
    src.line("  }")
    src.line()
    src.line("  void onTaskRemoved(Intent rootIntent) {")
    src.line("    super.onTaskRemoved(rootIntent);")
    src.mark(f"u{i}", f"    fd{i}.work();")
    src.line("  }")
    src.line()
    src.line("  void onTimeout(int startId) {")
    src.line("    super.onTimeout(startId);")
    src.mark(f"f{i}", f"    fd{i} = null;")
    src.line("  }")
    src.line("}")
    src.line()
    return _Injection(f"Svc{i}", f"fd{i}", f"u{i}", f"f{i}",
                      "foreground-service-race", "EC-EC", EXPECT_SURVIVING)


def _lifecycle_benign(src: _Source, i: int) -> _Injection:
    """onStart must happen before onDestroy: MHB-Lifecycle prunes."""
    _data_class(src, i)
    src.line(f"class Act{i} extends Activity {{")
    src.line(f"  Data{i} fd{i};")
    src.line()
    src.line("  void onCreate(Bundle savedInstanceState) {")
    src.line("    super.onCreate(savedInstanceState);")
    src.line(f"    setContentView({100 + i});")
    src.line(f"    fd{i} = new Data{i}();")
    src.line("  }")
    src.line()
    src.line("  void onStart() {")
    src.line("    super.onStart();")
    src.mark(f"u{i}", f"    fd{i}.work();")
    src.line("  }")
    src.line()
    src.line("  void onDestroy() {")
    src.line("    super.onDestroy();")
    src.mark(f"f{i}", f"    fd{i} = null;")
    src.line("  }")
    src.line("}")
    src.line()
    return _Injection(f"Act{i}", f"fd{i}", f"u{i}", f"f{i}",
                      "mhb-lifecycle-benign", "EC-EC", EXPECT_FILTERED)


def _guard_benign(src: _Source, i: int) -> _Injection:
    """A same-looper null check protects the use: If-Guard prunes."""
    _data_class(src, i)
    src.line(f"class Act{i} extends Activity {{")
    src.line(f"  Data{i} fd{i};")
    src.line()
    src.line("  void onCreate(Bundle savedInstanceState) {")
    src.line("    super.onCreate(savedInstanceState);")
    src.line(f"    setContentView({100 + i});")
    src.line(f"    fd{i} = new Data{i}();")
    src.line("  }")
    src.line()
    src.line("  void onResume() {")
    src.line("    super.onResume();")
    src.line(f"    if (fd{i} != null) {{")
    src.mark(f"u{i}", f"      fd{i}.work();")
    src.line("    }")
    src.line("  }")
    src.line()
    src.line("  void onStop() {")
    src.line("    super.onStop();")
    src.mark(f"f{i}", f"    fd{i} = null;")
    src.line("  }")
    src.line("}")
    src.line()
    return _Injection(f"Act{i}", f"fd{i}", f"u{i}", f"f{i}",
                      "if-guard-benign", "EC-EC", EXPECT_FILTERED)


def _fresh_alloc_benign(src: _Source, i: int) -> _Injection:
    """The use sees the fresh allocation stored just above it: IA prunes."""
    _data_class(src, i)
    src.line(f"class Act{i} extends Activity {{")
    src.line(f"  Data{i} fd{i};")
    src.line()
    src.line("  void onResume() {")
    src.line("    super.onResume();")
    src.line(f"    fd{i} = new Data{i}();")
    src.mark(f"u{i}", f"    fd{i}.work();")
    src.line("  }")
    src.line()
    src.line("  void onStop() {")
    src.line("    super.onStop();")
    src.mark(f"f{i}", f"    fd{i} = null;")
    src.line("  }")
    src.line("}")
    src.line()
    return _Injection(f"Act{i}", f"fd{i}", f"u{i}", f"f{i}",
                      "fresh-alloc-benign", "EC-EC", EXPECT_FILTERED)


def _fragment_benign(src: _Source, i: int) -> _Injection:
    """onStart before onDestroy inside one fragment: MHB-Fragment prunes."""
    _data_class(src, i)
    src.line(f"class Frag{i} extends Fragment {{")
    src.line(f"  Data{i} fd{i};")
    src.line()
    src.line("  void onAttach(Activity activity) {")
    src.line("    super.onAttach(activity);")
    src.line(f"    fd{i} = new Data{i}();")
    src.line("  }")
    src.line()
    src.line("  void onStart() {")
    src.line("    super.onStart();")
    src.mark(f"u{i}", f"    fd{i}.work();")
    src.line("  }")
    src.line()
    src.line("  void onDestroy() {")
    src.line("    super.onDestroy();")
    src.mark(f"f{i}", f"    fd{i} = null;")
    src.line("  }")
    src.line("}")
    src.line()
    src.line(f"class Act{i} extends Activity {{")
    src.line()
    src.line("  void onCreate(Bundle savedInstanceState) {")
    src.line("    super.onCreate(savedInstanceState);")
    src.line(f"    setContentView({100 + i});")
    _commit_fragment(src, i, 2, owner=False)
    src.line("  }")
    src.line("}")
    src.line()
    return _Injection(f"Frag{i}", f"fd{i}", f"u{i}", f"f{i}",
                      "fragment-benign", "PC-PC", EXPECT_FILTERED)


def _ordered_broadcast_benign(src: _Source, i: int) -> _Injection:
    """The registered receiver's use precedes the result receiver's free:
    MHB-OrderedBroadcast prunes."""
    _data_class(src, i)
    src.line(f"class Reg{i} extends BroadcastReceiver {{")
    src.line(f"  Act{i} owner;")
    src.line()
    src.line("  public void onReceive(Context context, Intent intent) {")
    src.mark(f"u{i}", f"    owner.fd{i}.work();")
    src.line("  }")
    src.line("}")
    src.line()
    src.line(f"class Res{i} extends BroadcastReceiver {{")
    src.line(f"  Act{i} owner;")
    src.line()
    src.line("  public void onReceive(Context context, Intent intent) {")
    src.mark(f"f{i}", f"    owner.fd{i} = null;")
    src.line("  }")
    src.line("}")
    src.line()
    src.line(f"class Act{i} extends Activity {{")
    src.line(f"  Data{i} fd{i};")
    src.line(f"  Reg{i} reg{i};")
    src.line()
    src.line("  void onCreate(Bundle savedInstanceState) {")
    src.line("    super.onCreate(savedInstanceState);")
    src.line(f"    setContentView({100 + i});")
    src.line(f"    fd{i} = new Data{i}();")
    src.line(f"    reg{i} = new Reg{i}();")
    src.line(f"    reg{i}.owner = this;")
    src.line(f"    registerReceiver(reg{i}, "
             f"new IntentFilter(\"gen.ORDERED{i}\"));")
    src.line(f"    Res{i} res = new Res{i}();")
    src.line("    res.owner = this;")
    src.line(f"    sendOrderedBroadcast(new Intent(\"gen.ORDERED{i}\"), "
             "res);")
    src.line("  }")
    src.line("}")
    src.line()
    return _Injection(f"Act{i}", f"fd{i}", f"u{i}", f"f{i}",
                      "ordered-broadcast-benign", "PC-PC", EXPECT_FILTERED)


def _foreground_benign(src: _Source, i: int) -> _Injection:
    """onTimeout must happen before onDestroy: the widened SERVICE_MHB
    prunes."""
    _data_class(src, i)
    src.line(f"class Svc{i} extends Service {{")
    src.line(f"  Data{i} fd{i};")
    src.line()
    src.line("  void onCreate() {")
    src.line("    super.onCreate();")
    src.line(f"    fd{i} = new Data{i}();")
    src.line("  }")
    src.line()
    src.line("  void onTimeout(int startId) {")
    src.line("    super.onTimeout(startId);")
    src.mark(f"u{i}", f"    fd{i}.work();")
    src.line("  }")
    src.line()
    src.line("  void onDestroy() {")
    src.line("    super.onDestroy();")
    src.mark(f"f{i}", f"    fd{i} = null;")
    src.line("  }")
    src.line("}")
    src.line()
    return _Injection(f"Svc{i}", f"fd{i}", f"u{i}", f"f{i}",
                      "foreground-benign", "EC-EC", EXPECT_FILTERED)


_Emitter = Callable[[_Source, int], _Injection]

#: The pattern catalog, ordered; rng indexes into this tuple.
PATTERNS: Tuple[Tuple[str, _Emitter], ...] = (
    ("fig1a-service-conn", _fig1a_service_conn),
    ("fig1b-deferred-guard", _fig1b_deferred_guard),
    ("fig1c-looper-pool", _fig1c_looper_pool),
    ("posted-vs-destroy", _posted_vs_destroy),
    ("fragment-activity-race", _fragment_activity_race),
    ("ordered-broadcast-teardown", _ordered_broadcast_teardown),
    ("foreground-service-race", _foreground_service_race),
    ("mhb-lifecycle-benign", _lifecycle_benign),
    ("if-guard-benign", _guard_benign),
    ("fresh-alloc-benign", _fresh_alloc_benign),
    ("fragment-benign", _fragment_benign),
    ("ordered-broadcast-benign", _ordered_broadcast_benign),
    ("foreground-benign", _foreground_benign),
)

PATTERN_NAMES: Tuple[str, ...] = tuple(name for name, _ in PATTERNS)


# ---------------------------------------------------------------------------
# App assembly
# ---------------------------------------------------------------------------


def _emit_skeleton(src: _Source) -> None:
    """The always-present lifecycle skeleton.  It never nulls a reference
    field, so it contributes no free events (clean apps stay warning-free)."""
    src.line("class BootState {")
    src.line("  void warm() { }")
    src.line("}")
    src.line()
    src.line("class MainActivity extends Activity {")
    src.line("  BootState boot;")
    src.line("  View statusView;")
    src.line()
    src.line("  void onCreate(Bundle savedInstanceState) {")
    src.line("    super.onCreate(savedInstanceState);")
    src.line("    setContentView(1);")
    src.line("    boot = new BootState();")
    src.line("    statusView = findViewById(7);")
    src.line("    boot.warm();")
    src.line("  }")
    src.line()
    src.line("  void onResume() {")
    src.line("    super.onResume();")
    src.line("    boot.warm();")
    src.line("  }")
    src.line("}")
    src.line()


def _emit_filler(src: _Source, j: int) -> None:
    src.line(f"class Util{j} {{")
    src.line("  void tick() { }")
    src.line("  void tock() { }")
    src.line("}")
    src.line()


def _app_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def generate_app(config: GeneratorConfig, index: int) -> GeneratedApp:
    """Generate app ``index`` of the corpus -- reproducible in isolation."""
    rng = _app_rng(config.seed, index)
    name = generated_app_name(config.seed, index)
    clean = rng.random() < config.clean_ratio

    src = _Source()
    src.line(f"// {name} -- generated MiniDroid app "
             f"(seed {config.seed}, index {index}).")
    if clean:
        src.line("// clean: no injected pattern; zero warnings expected.")
    src.line()
    _emit_skeleton(src)

    injections: List[_Injection] = []
    if not clean:
        k = rng.randint(config.min_patterns, config.max_patterns)
        for slot in range(k):
            _, emitter = PATTERNS[rng.randrange(len(PATTERNS))]
            injections.append(emitter(src, slot))

    for j in range(rng.randint(0, config.max_filler_classes)):
        _emit_filler(src, j)

    source = src.render()
    labels = [inj.resolve(name, src.marks) for inj in injections]
    return GeneratedApp(
        name=name,
        source=source,
        labels=labels,
        clean=clean,
        patterns=[inj.pattern for inj in injections],
    )


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
