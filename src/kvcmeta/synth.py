"""Deterministic synthetic prefix-prefill trace generation.

The generator grows a prefix tree whose nodes each own a span of consecutive
block ids, allocated from a single global counter in node-creation order:
early (popular) paths therefore occupy the lowest ids, and every root-to-node
path emits a handful of contiguous runs, matching the structure real traces
show. Each request

1. walks the tree from the (blockless) virtual root to a random depth,
   choosing at every level between revisiting an existing child, with
   probability proportional to ``reuse_bias`` times the child's visit count
   (preferential attachment), and creating a fresh branch;
2. appends a fresh contiguous suffix of ``suffix_blocks`` new ids, which are
   then retired into a pool;
3. with probability ``random_block_rate`` appends a few isolated ids drawn
   from the retired pool, re-drawn if they would extend an adjacent run.

Arrivals follow an exponential interarrival process. A fixed seed yields a
byte-identical serialized trace.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, asdict

from . import analysis
from .trace import Trace, TraceRequest

MAX_INJECT_PER_REQUEST = 3
_ISOLATION_RETRIES = 8


@dataclass(frozen=True)
class PrefixTreeShape:
    depth: int
    branching: int
    blocks_per_node: int


@dataclass(frozen=True)
class SuffixBlocks:
    min: int
    max: int


@dataclass(frozen=True)
class SynthConfig:
    num_requests: int
    mean_interarrival_ms: float
    prefix_tree: PrefixTreeShape
    reuse_bias: float
    random_block_rate: float
    suffix_blocks: SuffixBlocks
    seed: int
    block_tokens: int = 512
    label: str = "synthetic"

    def __post_init__(self) -> None:
        if self.num_requests < 0:
            raise ValueError("num_requests must be >= 0")
        if not self.mean_interarrival_ms > 0:  # NaN fails too
            raise ValueError("mean_interarrival_ms must be positive")
        t = self.prefix_tree
        if t.depth < 1 or t.branching < 1 or t.blocks_per_node < 1:
            raise ValueError("prefix_tree depth, branching, blocks_per_node must be >= 1")
        if not self.reuse_bias >= 0:
            raise ValueError("reuse_bias must be >= 0")
        if not 0.0 <= self.random_block_rate <= 1.0:
            raise ValueError("random_block_rate must lie in [0, 1]")
        s = self.suffix_blocks
        if s.min < 0 or s.min > s.max:
            raise ValueError("suffix_blocks requires 0 <= min <= max")

    @classmethod
    def from_dict(cls, raw: dict) -> "SynthConfig":
        try:
            tree = PrefixTreeShape(**raw["prefix_tree"])
            suffix = SuffixBlocks(**raw["suffix_blocks"])
            rest = {
                k: v
                for k, v in raw.items()
                if k not in ("prefix_tree", "suffix_blocks", "targets")
            }
            return cls(prefix_tree=tree, suffix_blocks=suffix, **rest)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"invalid synth config: {exc}") from exc


@dataclass
class _Node:
    first_id: int
    length: int
    visits: int = 0
    child_visits: int = 0  # sum of the children's visits
    children: list["_Node"] = field(default_factory=list)


def generate(config: SynthConfig) -> Trace:
    """Generate a trace from the config; pure function of (config, seed).

    Raises ValueError when num_requests is 0 ("empty trace") or when the
    tree cannot supply a required fresh path (reuse_bias 0 with exhausted
    branching).
    """
    if config.num_requests == 0:
        raise ValueError("empty trace: num_requests is 0")
    rng = random.Random(config.seed)
    shape = config.prefix_tree
    next_id = 0
    root = _Node(0, 0)  # virtual: owns no blocks
    retired: list[int] = []
    requests: list[TraceRequest] = []
    arrival = 0.0

    def new_child(parent: _Node) -> _Node:
        nonlocal next_id
        child = _Node(next_id, shape.blocks_per_node)
        next_id += shape.blocks_per_node
        parent.children.append(child)
        return child

    for i in range(config.num_requests):
        ids: list[int] = []
        node = root
        target_depth = 1 + _below(rng, shape.depth)
        for _ in range(target_depth):
            reuse_weight = config.reuse_bias * node.child_visits
            can_branch = len(node.children) < shape.branching
            total = reuse_weight + (1.0 if can_branch else 0.0)
            if total <= 0.0:
                raise ValueError(
                    "prefix tree cannot supply a fresh path: reuse_bias is 0 and "
                    f"branching {shape.branching} is exhausted at request {i}"
                )
            if can_branch and rng.random() * total < 1.0:
                child = new_child(node)
            else:
                child = _weighted_child(rng, node.children, node.child_visits)
            node.child_visits += 1
            node = child
            node.visits += 1
            ids.extend(range(node.first_id, node.first_id + node.length))

        suffix = config.suffix_blocks
        suffix_len = suffix.min + _below(rng, suffix.max - suffix.min + 1)
        if suffix_len:
            ids.extend(range(next_id, next_id + suffix_len))
            retired.extend(range(next_id, next_id + suffix_len))
            next_id += suffix_len

        if retired and rng.random() < config.random_block_rate:
            for _ in range(1 + _below(rng, MAX_INJECT_PER_REQUEST)):
                bid = _draw_isolated(rng, retired, ids)
                if bid is not None:
                    ids.append(bid)

        if i > 0:
            arrival += rng.expovariate(1.0 / config.mean_interarrival_ms)
        requests.append(
            TraceRequest(
                arrival_ms=int(round(arrival)),
                input_len=len(ids) * config.block_tokens,
                output_len=1 + _below(rng, 256),
                block_ids=tuple(ids),
            )
        )

    return Trace(tuple(requests), label=config.label)


def _weighted_child(rng: random.Random, children: list[_Node], total: int) -> _Node:
    # Weights are the visit counts (preferential attachment); ``total`` is
    # their sum, > 0 here.
    pick = rng.random() * total
    acc = 0.0
    for child in children:
        acc += child.visits
        if pick < acc:
            return child
    return children[-1]


def _below(rng: random.Random, n: int) -> int:
    """A uniform int in [0, n), n >= 1, drawn exactly as CPython 3.11's
    ``rng.randrange(n)`` draws it (``Random._randbelow_with_getrandbits``);
    ``rng.randint(a, b)`` is ``a + _below(rng, b - a + 1)``. Going straight
    to ``getrandbits`` skips the argument checks that dominate those calls,
    and keeps every trace byte-identical."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _draw_isolated(rng: random.Random, retired: list[int], ids: list[int]) -> int | None:
    # An injected id must not extend the run it lands next to, nor duplicate
    # its neighbor; appended at the end, only the left neighbor matters.
    for _ in range(_ISOLATION_RETRIES):
        bid = retired[_below(rng, len(retired))]
        if not ids or (bid != ids[-1] + 1 and bid != ids[-1]):
            return bid
    return None


@dataclass
class FitReport:
    """Measured workload statistics and absolute deviations from targets."""

    measured: dict[str, float]
    targets: dict[str, float]
    deviations: dict[str, float]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def measure(trace: Trace) -> dict[str, float]:
    """The generator-relevant statistics of a trace, via the analysis module."""
    rates = analysis.request_hit_rates(trace)
    seq = [f for _, _, f in analysis.sequential_fractions(trace)]
    return {
        "seq_fraction": sum(seq) / len(seq) if seq else 0.0,
        "mean_hit_rate": sum(rates) / len(rates) if rates else 0.0,
    }


def fit_report(trace: Trace, targets: dict[str, float]) -> FitReport:
    """Measure the trace and report absolute deviation from each target. Keys
    of ``targets`` must be among the measured statistics."""
    if not trace.requests:
        raise ValueError("empty trace")
    measured = measure(trace)
    unknown = set(targets) - set(measured)
    if unknown:
        raise ValueError(f"unknown fit targets: {sorted(unknown)}")
    deviations = {k: abs(measured[k] - v) for k, v in targets.items()}
    return FitReport(measured, dict(targets), deviations)


# Cookbook configuration: tool&agent-like profile. Heavy reuse of the initial
# prefix band (low ids, pinned by lru_pin), sequential fraction near 0.87 at
# 1000+ requests, a steady stream of fresh suffix blocks to pressure the
# cache, and isolated re-reads of retired blocks for the random-access mix.
COOKBOOK_TOOL_AGENT = SynthConfig(
    num_requests=2000,
    mean_interarrival_ms=1800.0,
    prefix_tree=PrefixTreeShape(depth=4, branching=3, blocks_per_node=4),
    reuse_bias=4.0,
    random_block_rate=0.9,
    suffix_blocks=SuffixBlocks(min=2, max=6),
    seed=20250607,
    label="cookbook-toolagent",
)
