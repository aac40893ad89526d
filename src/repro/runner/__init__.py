"""Parallel cached corpus-analysis subsystem.

``CorpusRunner`` fans per-app analyses out over worker processes
(``--jobs N`` on the CLI) behind a content-addressed on-disk result cache
(``--cache-dir`` / ``--no-cache``), with a determinism guarantee: parallel
output is byte-identical to serial output.
"""

from .cache import (
    cache_key,
    CACHE_SCHEMA,
    default_cache_dir,
    ResultCache,
)
from .runner import (
    CorpusRunner,
    execute_app_task_observed,
    RunMetrics,
    RunStats,
    TASK_KINDS,
)
from .serialize import (
    config_fingerprint,
    result_data_from_dict,
    result_data_to_dict,
    result_to_data,
    ResultData,
    row_from_dict,
    row_to_dict,
    warning_from_dict,
    warning_sort_key,
    warning_to_dict,
)

__all__ = [
    "cache_key", "CACHE_SCHEMA", "config_fingerprint", "CorpusRunner",
    "default_cache_dir", "execute_app_task_observed",
    "result_data_from_dict", "result_data_to_dict", "result_to_data",
    "ResultCache", "ResultData", "row_from_dict", "row_to_dict",
    "RunMetrics", "RunStats", "TASK_KINDS", "warning_from_dict",
    "warning_sort_key", "warning_to_dict",
]
