"""FilterKV core: formats, partitioning, aux tables, pipelines, read path,
and the write-phase cost model."""

from .auxtable import (
    AuxTable,
    BloomAuxTable,
    CuckooAuxTable,
    CsfAuxTable,
    ExactAuxTable,
    bloom_bits_per_key,
    rank_bits,
)
from .advisor import Advice, recommend_format
from .compact import CompactionPolicy, CompactionReport, Compactor
from .costmodel import WritePhaseResult, WriteRunConfig, model_write_phase
from .multiepoch import EpochMount, MultiEpochStore
from .formats import FMT_BASE, FMT_DATAPTR, FMT_FILTERKV, FORMATS, FormatSpec
from .kv import KEY_BYTES, KVBatch, random_kv_batch
from .partitioning import HashPartitioner
from .pipeline import ReceiverState, Rows, WriterState, aux_table_name, main_table_name
from .reader import QueryEngine, QueryStats
from .routing import DirectRouter, ThreeHopRouter

__all__ = [
    "AuxTable",
    "BloomAuxTable",
    "CuckooAuxTable",
    "CsfAuxTable",
    "ExactAuxTable",
    "bloom_bits_per_key",
    "rank_bits",
    "Advice",
    "recommend_format",
    "CompactionPolicy",
    "CompactionReport",
    "Compactor",
    "EpochMount",
    "MultiEpochStore",
    "WritePhaseResult",
    "WriteRunConfig",
    "model_write_phase",
    "FMT_BASE",
    "FMT_DATAPTR",
    "FMT_FILTERKV",
    "FORMATS",
    "FormatSpec",
    "KEY_BYTES",
    "KVBatch",
    "random_kv_batch",
    "HashPartitioner",
    "Rows",
    "ReceiverState",
    "WriterState",
    "aux_table_name",
    "main_table_name",
    "QueryEngine",
    "DirectRouter",
    "ThreeHopRouter",
    "QueryStats",
]
