"""Threadification (paper section 4): model event callbacks as threads."""

from .entrypoints import discover_entry_callbacks, EntryCallback
from .model import ThreadForest, ThreadKind, ThreadNode
from .resolve import (
    concrete_implementers,
    resolve_local_classes,
    resolve_thread_tasks,
)
from .transform import (
    ApiSite,
    build_shared_frameworks,
    DUMMY_MAIN_CLASS,
    REGISTRY_CLASS,
    ThreadifiedProgram,
    Threadifier,
    threadify,
)

__all__ = [
    "ApiSite", "build_shared_frameworks", "concrete_implementers",
    "discover_entry_callbacks", "DUMMY_MAIN_CLASS", "EntryCallback",
    "REGISTRY_CLASS",
    "resolve_local_classes", "resolve_thread_tasks", "ThreadForest",
    "ThreadifiedProgram", "Threadifier", "threadify", "ThreadKind",
    "ThreadNode",
]
