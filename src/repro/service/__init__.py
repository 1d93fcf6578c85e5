"""The network service: streaming ingest/subscribe with triage at the edge.

Paper Figure 1 shows triage queues sitting not only inside the engine but
at remote gateways upstream of network links.  This package turns the
library into that deployment: a long-running asyncio TCP server
(:mod:`repro.service.server`) accepts live publishers, sheds overload into
per-window synopses via the same :class:`~repro.core.triage_queue.TriageQueue`
machinery the simulator uses, evaluates each closed window's composite
(exact + approximate) answer, and fans it out to subscribers — while a
dependency-free telemetry layer (:mod:`repro.obs.metrics`) reports
queue depths, drop ratios, and window latencies as Prometheus text or JSON.

Modules:

* :mod:`repro.service.protocol` — the versioned NDJSON wire protocol;
* :mod:`repro.service.session` — admission control, rate caps, eviction;
* :mod:`repro.service.dataplane` — the in-process triage data plane;
* :mod:`repro.service.shard` — the multi-process sharded data plane;
* :mod:`repro.service.server` — the asyncio TCP server + window ticker;
* :mod:`repro.service.client` — the asyncio client library.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.service.client import ServiceError, TriageClient
from repro.service.dataplane import StreamDataPlane
from repro.service.protocol import (
    MAX_BATCH_ROWS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    validate_frame,
)
from repro.service.server import ServiceConfig, TriageServer
from repro.service.session import AdmissionError, SessionRegistry, TokenBucket
from repro.service.shard import ShardedDataPlane, ShardError, shard_of

__all__ = [
    "TriageServer",
    "ServiceConfig",
    "StreamDataPlane",
    "ShardedDataPlane",
    "ShardError",
    "shard_of",
    "TriageClient",
    "ServiceError",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "ProtocolError",
    "AdmissionError",
    "SessionRegistry",
    "TokenBucket",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "MAX_BATCH_ROWS",
    "encode_frame",
    "decode_frame",
    "validate_frame",
]
