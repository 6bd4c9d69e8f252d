"""Closed-form models (Table I math) and report rendering."""

from .models import (
    TABLE1_MACHINES,
    Table1Machine,
    bloom_amplification,
    bloom_bytes_per_key_for_bound,
    cuckoo_amplification,
)
from .figures import ascii_series
from .reporting import (
    BENCH_SCHEMA,
    banner,
    bench_document,
    format_value,
    percent,
    render_table,
    table_artifact,
    table_data,
)

__all__ = [
    "TABLE1_MACHINES",
    "Table1Machine",
    "bloom_amplification",
    "bloom_bytes_per_key_for_bound",
    "cuckoo_amplification",
    "banner",
    "ascii_series",
    "format_value",
    "percent",
    "render_table",
    "table_artifact",
    "table_data",
    "bench_document",
    "BENCH_SCHEMA",
]
