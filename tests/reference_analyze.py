"""The ``repro analyze`` renderer the runner path replaced.

``analyze`` used to call :func:`repro.core.analyze_app` in the CLI's own
process and print from the in-process result: the thread-model and
funnel counts, the origin split, then each remaining warning in
``AnalysisResult.remaining()`` order, its lineage read off the in-worker
``ThreadForest``.  This is that renderer, kept verbatim apart from the
old ``UafWarning.describe(forest)`` body, which is inlined here because
the method now reads the lineage each occurrence carries.

:func:`render` returns ``(stdout, exit code, blocks)``, where ``blocks``
pairs each warning's printed block with the warning it describes.
"""

from typing import List, Tuple

from repro.core import analyze_app
from repro.race.warnings import UafWarning


def describe(warning: UafWarning, forest) -> str:
    lines = [
        f"potential UAF on {warning.fieldref}:",
        f"  use : {warning.use_method} (line {warning._line('use')})",
        f"  free: {warning.free_method} (line {warning._line('free')})",
    ]
    shown = warning.surviving_occurrences() or warning.occurrences
    for occ in shown[:4]:
        use_node = forest.node(occ.use.node_id)
        free_node = forest.node(occ.free.node_id)
        lines.append(f"  [{occ.pair_type}]")
        lines.append(f"    use  thread: {use_node.describe()}")
        lines.append(f"    free thread: {free_node.describe()}")
    return "\n".join(lines)


def render(files) -> Tuple[str, int, List[Tuple[str, UafWarning]]]:
    result = analyze_app(files)
    out: List[str] = []
    counts = result.counts()
    out.append(f"modeled threads : EC={counts['EC']} PC={counts['PC']} "
               f"T={counts['T']}")
    out.append(f"potential UAFs  : {counts['potential']}")
    out.append(f"after sound     : {counts['after_sound']}")
    out.append(f"after unsound   : {counts['after_unsound']}")
    by_type = {k: v for k, v in result.by_pair_type().items() if v}
    if by_type:
        out.append(f"origin split    : {by_type}")
    out.append("")
    blocks = []
    for warning in result.remaining():
        block = describe(warning, result.program.forest)
        blocks.append((block, warning))
        out.append(block)
        out.append("")
    code = 0 if not result.remaining() else 1
    return "".join(line + "\n" for line in out), code, blocks
