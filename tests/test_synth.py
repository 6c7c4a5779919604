from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random

import pytest

from kvcmeta import analysis, synth
from kvcmeta.synth import (
    COOKBOOK_TOOL_AGENT,
    FitReport,
    PrefixTreeShape,
    SuffixBlocks,
    SynthConfig,
    fit_report,
    generate,
    measure,
)
from kvcmeta.trace import parse_trace, serialize_trace

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _config(**overrides) -> SynthConfig:
    base = dict(
        num_requests=50,
        mean_interarrival_ms=100.0,
        prefix_tree=PrefixTreeShape(depth=3, branching=4, blocks_per_node=2),
        reuse_bias=2.0,
        random_block_rate=0.2,
        suffix_blocks=SuffixBlocks(min=2, max=4),
        seed=1,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestConfigValidation:
    def test_bad_tree(self):
        with pytest.raises(ValueError, match="prefix_tree"):
            _config(prefix_tree=PrefixTreeShape(depth=0, branching=1, blocks_per_node=1))

    def test_bad_suffix(self):
        with pytest.raises(ValueError, match="suffix_blocks"):
            _config(suffix_blocks=SuffixBlocks(min=5, max=2))

    def test_bad_rate(self):
        with pytest.raises(ValueError, match="random_block_rate"):
            _config(random_block_rate=1.5)

    def test_bad_interarrival(self):
        with pytest.raises(ValueError, match="mean_interarrival_ms"):
            _config(mean_interarrival_ms=0)

    def test_nan_interarrival(self):
        with pytest.raises(ValueError, match="mean_interarrival_ms must be positive"):
            _config(mean_interarrival_ms=float("nan"))

    def test_from_dict_missing_field(self):
        with pytest.raises(ValueError, match="invalid synth config"):
            SynthConfig.from_dict({"num_requests": 5})

    def test_cookbook_file_matches_constant(self):
        with open(os.path.join(CONFIGS, "cookbook_toolagent.json")) as fh:
            raw = json.load(fh)
        assert SynthConfig.from_dict(raw) == COOKBOOK_TOOL_AGENT


class TestGenerate:
    def test_determinism_byte_identical(self):
        cfg = _config(num_requests=200)
        a = serialize_trace(generate(cfg))
        b = serialize_trace(generate(cfg))
        assert a == b

    def test_different_seed_differs(self):
        assert serialize_trace(generate(_config(seed=1))) != serialize_trace(
            generate(_config(seed=2))
        )

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError, match="empty trace"):
            generate(_config(num_requests=0))

    def test_fresh_paths_have_zero_hit_rate(self):
        cfg = _config(
            num_requests=40,
            reuse_bias=0.0,
            random_block_rate=0.0,
            prefix_tree=PrefixTreeShape(depth=2, branching=40, blocks_per_node=2),
        )
        trace = generate(cfg)
        assert analysis.request_hit_rates(trace) == [0.0] * 40

    def test_no_injection_and_wide_nodes_give_full_sequentiality(self):
        cfg = _config(
            random_block_rate=0.0,
            prefix_tree=PrefixTreeShape(depth=3, branching=3, blocks_per_node=2),
            suffix_blocks=SuffixBlocks(min=2, max=5),
        )
        trace = generate(cfg)
        assert measure(trace)["seq_fraction"] == 1.0

    def test_shared_prefix_reuse_positive_hit_rate(self):
        cfg = _config(num_requests=1000, reuse_bias=3.0)
        trace = generate(cfg)
        assert measure(trace)["mean_hit_rate"] > 0.0

    def test_exhausted_tree_raises(self):
        cfg = _config(
            num_requests=2,
            reuse_bias=0.0,
            random_block_rate=0.0,
            prefix_tree=PrefixTreeShape(depth=1, branching=1, blocks_per_node=1),
        )
        with pytest.raises(ValueError, match="cannot supply a fresh path"):
            generate(cfg)

    def test_round_trips_through_trace_model(self):
        trace = generate(_config(num_requests=100))
        again = parse_trace(serialize_trace(trace), label=trace.label)
        assert again == trace

    def test_arrivals_start_at_zero_and_are_sorted(self):
        trace = generate(_config(num_requests=100))
        arrivals = [r.arrival_ms for r in trace.requests]
        assert arrivals[0] == 0
        assert arrivals == sorted(arrivals)

    def test_node_spans_are_consecutive(self):
        # with injection off, every emitted singleton would be a width-1 node;
        # use wide nodes so every run is at least node-width long
        cfg = _config(
            random_block_rate=0.0,
            suffix_blocks=SuffixBlocks(min=0, max=0),
            prefix_tree=PrefixTreeShape(depth=4, branching=3, blocks_per_node=3),
        )
        trace = generate(cfg)
        for req in trace.requests:
            for run in analysis.segment_runs(req.block_ids):
                assert run.length >= 3  # node spans never fragment


class TestDrawIsolated:
    def test_rejects_run_extension(self):
        rng = random.Random(0)
        # the only candidate would extend the trailing run -> give up (None)
        assert synth._draw_isolated(rng, [6], [4, 5]) is None

    def test_rejects_duplicate_neighbor(self):
        rng = random.Random(0)
        assert synth._draw_isolated(rng, [5], [4, 5]) is None

    def test_accepts_isolated(self):
        rng = random.Random(0)
        assert synth._draw_isolated(rng, [9], [4, 5]) == 9


class TestFitReport:
    def test_self_measure_zero_deviation(self):
        trace = generate(_config())
        rep = fit_report(trace, measure(trace))
        assert all(v == 0.0 for v in rep.deviations.values())

    def test_all_fresh_against_half_hit_target(self):
        cfg = _config(
            num_requests=30,
            reuse_bias=0.0,
            random_block_rate=0.0,
            prefix_tree=PrefixTreeShape(depth=1, branching=30, blocks_per_node=2),
        )
        rep = fit_report(generate(cfg), {"mean_hit_rate": 0.5})
        assert rep.deviations["mean_hit_rate"] == pytest.approx(0.5)

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown fit targets"):
            fit_report(generate(_config()), {"bogus": 1.0})

    def test_report_json_shape(self):
        rep = FitReport({"a": 1.0}, {"a": 0.9}, {"a": 0.1})
        parsed = json.loads(rep.to_json())
        assert parsed == {
            "measured": {"a": 1.0},
            "targets": {"a": 0.9},
            "deviations": {"a": 0.1},
        }


class TestCookbook:
    def test_tool_agent_profile_hits_targets(self):
        trace = generate(COOKBOOK_TOOL_AGENT)
        assert len(trace.requests) >= 1000
        rep = fit_report(trace, {"seq_fraction": 0.87})
        assert rep.deviations["seq_fraction"] <= 0.05

    def test_heavy_initial_prefix_reuse(self):
        # the lowest-id band (first tree nodes) must be touched by most requests
        trace = generate(COOKBOOK_TOOL_AGENT)
        band = set(range(16))
        touching = sum(1 for r in trace.requests if band & set(r.block_ids))
        assert touching / len(trace.requests) > 0.9

    @pytest.mark.parametrize("seed, digest", [
        (1, "9446d0c0a17f4c6076fc824d1dd3bf5ab524fe2c7cd09fbb10052793edf549c3"),
        (7, "e3ff7259d1729ef81ab0e5820d2eb033fe74eb2f4467ae0d3400ccf32a864d48"),
        (20250607, "d782a0f1a9ab920151f4da416c724a26a28cff9f825c545ed8d6683648f4b173"),
    ])
    def test_seed_maps_to_a_fixed_trace(self, seed, digest):
        # The seed contract: these digests were taken from the generator that
        # drew through random.Random.randint/randrange, so any change to how
        # draws are made must leave every serialized byte where it was.
        trace = generate(dataclasses.replace(COOKBOOK_TOOL_AGENT, seed=seed))
        assert hashlib.sha256(serialize_trace(trace)).hexdigest() == digest
