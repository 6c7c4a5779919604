"""kvcmeta: KV-cache prefix-prefill metadata workload analysis and benchmarking.

The package splits into trace ingestion (`trace`), workload characterization
(`analysis`), the reference metadata store (`store`), the wire protocol and
TCP service (`protocol`, `service`), the trace-replay benchmark (`bench`),
synthetic workload generation (`synth`), report rendering (`report`), and
the command-line front end (`cli`).

The public names below load on first use: ``import kvcmeta`` imports no
submodule, and ``kvcmeta.X`` or ``from kvcmeta import X`` imports only the
module that defines X. So ``kvcmeta serve`` starts without the analysis,
benchmark and report code it never calls.
"""

from importlib import import_module

__version__ = "0.1.0"

# The values that ``bench.compile_ops`` (mode, key_scheme) and ``bench.replay``
# (schedule) accept. They live here, not in ``bench``, so that the CLI can
# offer them as choices without importing ``bench``.
MODES = ("preload", "insert_on_miss")
KEY_SCHEMES = ("ordered", "hashed")
SCHEDULES = ("faithful", "closed_loop")

_EXPORTS = {
    "trace": ("Trace", "TraceRequest", "parse_trace", "serialize_trace", "load_trace",
              "save_trace"),
    "store": ("CacheConfig", "HybridMetaStore", "IndexStats", "encode_key", "decode_key",
              "hash_key"),
    "service": ("Backend", "RemoteBackend", "StoreServer", "TransportError", "connect",
                "serve"),
    "bench": ("OpStream", "LatencyLog", "compile_ops", "replay", "percentile",
              "interval_stats", "normalize"),
    "synth": ("SynthConfig", "generate", "fit_report"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
