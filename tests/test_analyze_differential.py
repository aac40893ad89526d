"""``repro analyze`` against the in-process renderer it replaced.

``analyze`` now runs its sources as one ``analyze`` task of a serial,
uncached runner and prints from the task's decoded payload;
``reference_analyze.py`` is the old path (``analyze_app`` in the CLI's
process, lineage read off the ``ThreadForest``).  Over the 27 registry
apps and ``examples/quickstart.mjava`` the two must agree on the exit
code and on stdout once the old output's warning blocks are put in
``warning_sort_key`` order -- the order of the payload, the report and
the daemon.  Only on the four apps whose ``remaining()`` order differs
from that order does the raw stdout differ at all.
"""

from pathlib import Path

import pytest

import reference_analyze
from repro.cli import main
from repro.corpus import all_apps
from repro.runner.serialize import warning_sort_key

EXAMPLE = Path(__file__).resolve().parents[1] / "examples" / "quickstart.mjava"
SOURCES = {spec.name: spec.source() for spec in all_apps()}
SOURCES["quickstart"] = EXAMPLE.read_text()

#: the apps whose old block order was not the sorted one
REORDERED = {"mms", "mytracks1", "mytracks2", "qksms"}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_analyze_matches_the_in_process_renderer(name, tmp_path, capsys):
    path = tmp_path / f"{name}.mjava"
    path.write_text(SOURCES[name])
    old_out, old_code, blocks = reference_analyze.render(
        [(str(path), SOURCES[name])])

    code = main(["analyze", str(path)])
    out = capsys.readouterr().out

    assert code == old_code
    header = old_out[:old_out.index("\n\n") + 2]
    ordered = sorted(blocks, key=lambda pair: warning_sort_key(pair[1]))
    assert out == header + "".join(block + "\n\n" for block, _ in ordered)
    assert (out != old_out) == (name in REORDERED)
