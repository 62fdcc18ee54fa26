"""Arrow schemas for the CDC engine (the BASELINE.json ``input_hint`` shape).

Base table (the pre-tokenized training-sequence table the lake holds):
    doc_id: string, tokens: list<int32>, n_tok: int32, source: string

Change-event table (the WAL/binlog replay input) extends it with:
    lsn: int64   — strictly increasing, unique log sequence number
    op:  string  — "I" insert | "U" update (full-row image) | "D" delete

NiFi analog: a FlowFile's string attribute map + opaque content blob
(reference nifi-api/.../flowfile/FlowFile.java:29,104,109) becomes typed
Arrow columns; ``lsn`` plays the role NiFi leaves to queue prioritizers
(best-effort ordering) but with a hard total order per doc_id.
"""

from __future__ import annotations

import pyarrow as pa

SOURCES = ("web", "books", "code", "wiki")

VOCAB_SIZE = 50257
MAX_TOKENS = 256

BASE_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("tokens", pa.list_(pa.int32())),
        pa.field("n_tok", pa.int32()),
        pa.field("source", pa.string()),
    ]
)

EVENT_SCHEMA = pa.schema(
    [
        pa.field("lsn", pa.int64()),
        pa.field("op", pa.string()),
        pa.field("doc_id", pa.string()),
        pa.field("tokens", pa.list_(pa.int32())),
        pa.field("n_tok", pa.int32()),
        pa.field("source", pa.string()),
    ]
)


def base_fields_of(schema: pa.Schema) -> pa.Schema:
    """Project an (evolved) event schema down to its lake/base columns
    (drop the CDC bookkeeping columns ``lsn``/``op``, keep everything
    else including evolved extras)."""
    return pa.schema([f for f in schema if f.name not in ("lsn", "op")])
