"""The simulator's intrinsic table against the API table.

``API_TABLE`` says what each concurrency-relevant framework call means to
the static analysis; the intrinsic table executes the same calls in the
simulator.  Every row must have an intrinsic, or the simulator would run
the empty framework stub and, say, keep firing a listener after it was
unregistered -- an execution no Android device can produce.
"""

from repro.android.api import API_TABLE
from repro.android.framework import shared_framework
from repro.runtime import IntrinsicTable

#: API_TABLE rows the simulator deliberately does not execute, and why.
NOT_SIMULATED = {
    ("Context", "sendOrderedBroadcast"):
        "ordered broadcasts are not simulated: no result receiver runs",
    ("FragmentTransaction", "add"):
        "fragment lifecycles are not simulated: no fragment callback runs",
    ("FragmentTransaction", "replace"):
        "fragment lifecycles are not simulated: no fragment callback runs",
}


def test_every_api_table_row_has_an_intrinsic():
    table = IntrinsicTable()
    framework = shared_framework()
    missing = {key for key in API_TABLE
               if table.lookup(*key, framework) is None}
    assert missing == set(NOT_SIMULATED)
