"""Network serving tier: resident async TCP server over prebuilt indexes.

The layering is ``engine → service → server``: engines answer one query,
:mod:`repro.service` batches queries over the warmed engines of one or
more shards, and this package keeps that service resident behind a socket —
micro-batching concurrent requests, admission-controlling overload,
caching repeated queries, and hot-reloading the index when the file on
disk changes.  Start one with ``repro serve --index PATH --port P`` and
talk to it with ``repro query`` or :class:`ServerClient`.
"""

from repro.server.batcher import BatchKey, MicroBatcher, Overloaded
from repro.server.cache import CachedResult, ResultCache
from repro.server.client import (
    ServedBatch,
    ServedResult,
    ServerClient,
    ServerError,
    ServerOverloaded,
    wait_until_ready,
)
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PREFIX,
    ProtocolError,
    decode_length,
    decode_payload,
    encode_frame,
)
from repro.server.server import (
    SearchServer,
    ServerThread,
    index_epoch,
    open_serving_service,
)
from repro.server.stats import LatencyWindow, RateWindow, ServerStats

__all__ = [
    "BatchKey",
    "CachedResult",
    "LatencyWindow",
    "MAX_FRAME_BYTES",
    "MicroBatcher",
    "Overloaded",
    "PREFIX",
    "ProtocolError",
    "RateWindow",
    "ResultCache",
    "SearchServer",
    "ServedBatch",
    "ServedResult",
    "ServerClient",
    "ServerError",
    "ServerOverloaded",
    "ServerStats",
    "ServerThread",
    "decode_length",
    "decode_payload",
    "encode_frame",
    "index_epoch",
    "open_serving_service",
    "wait_until_ready",
]
