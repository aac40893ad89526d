"""The threadifier's channel table against ``API_TABLE`` and the framework.

Every registering ``API_TABLE`` row (every row that is not a
cancellation) gets a rewritten stub that stores its callback object into
one ``$Registry`` channel.  The channel table declares each channel's
type and the callbacks the dummy main drains from it.  These tests check
that the three agree: each row's callback parameter exists, each stub
stores into a declared channel that drains something, each declared
channel is fed by some stub, and each drained callback exists on its
channel's type.
"""

import pytest

from repro.android.api import API_TABLE, CANCEL_KINDS
from repro.android.framework import shared_framework
from repro.ir import Local, PutStatic
from repro.threadify import REGISTRY_CLASS
from repro.threadify.transform import _channels, threadified_framework

REGISTERING = {key: spec for key, spec in API_TABLE.items()
               if spec.kind not in CANCEL_KINDS}


@pytest.mark.parametrize("key", sorted(REGISTERING), ids=".".join)
def test_every_registering_row_has_a_stub_with_its_callback_parameter(key):
    stub = shared_framework().lookup_method(*key)
    assert stub is not None, key
    arg = REGISTERING[key].callback_arg
    if arg is not None:
        assert arg < len(stub.params), key
        assert stub.params[arg].type.is_reference(), key


def stored_channel(key):
    """The channel the fully rewritten stub of ``key`` stores into, after
    checking that it stores the row's callback object and nothing else."""
    spec = REGISTERING[key]
    stub = threadified_framework(True, True).lookup_method(*key)
    stores = [instr for instr in stub.instructions()
              if isinstance(instr, PutStatic)]
    assert len(stores) == 1, key
    callback = ("this" if spec.callback_arg is None
                else stub.params[spec.callback_arg].name)
    assert stores[0].value == Local(callback), key
    assert stores[0].fieldref.class_name == REGISTRY_CLASS, key
    return stores[0].fieldref.field_name


def test_every_stub_stores_into_a_declared_drained_channel():
    channels = _channels()
    stored = {stored_channel(key) for key in REGISTERING}
    for name in stored:
        assert name in channels, name
        assert channels[name][1], name
    assert stored == set(channels)


def test_every_drained_callback_exists_on_its_channel_type():
    framework = shared_framework()
    for name, (type_name, callbacks) in _channels().items():
        for callback in callbacks:
            assert framework.resolve_method(type_name, callback) is not None, \
                (name, callback)


def test_the_channel_table_is_built_once_per_process():
    assert _channels() is _channels()
