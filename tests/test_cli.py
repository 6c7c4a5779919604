from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import textwrap
import time

import pytest

import kvcmeta
from conftest import make_fixture_trace
from kvcmeta import report
from kvcmeta.cli import build_parser, main, make_backend, parse_cache_config
from kvcmeta.service import RemoteBackend
from kvcmeta.store import CacheConfig, HybridMetaStore, encode_key
from kvcmeta.trace import save_trace

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


@pytest.fixture
def trace_file(tmp_path):
    path = str(tmp_path / "fixture6.jsonl")
    save_trace(make_fixture_trace(), path)
    return path


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class TestParseHelpers:
    def test_cache_config_full(self):
        cfg = parse_cache_config("policy=lru_pin,capacity=128,pin=8,halflife=300")
        assert cfg == CacheConfig(128, "lru_pin", 8, 300.0)

    def test_cache_config_empty_disables(self):
        assert parse_cache_config("") == CacheConfig()

    def test_cache_config_bad_item(self):
        for text in ("nope=1", "cap=4"):
            with pytest.raises(ValueError, match="bad cache config"):
                parse_cache_config(text)

    def test_make_backend_inproc(self):
        backend = make_backend("inproc:capacity=4")
        assert isinstance(backend, HybridMetaStore)
        for bid in range(8):
            backend.put(encode_key("", bid), bid)
        assert backend.stats().cache_entries == 4

    def test_make_backend_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("quantum:1")


class TestAnalyze:
    def test_analyze_outputs(self, trace_file, tmp_path):
        out = str(tmp_path / "analysis")
        assert main(["analyze", trace_file, "--out", out]) == 0

        for name in ("hit_rate_cdf.csv", "seq_fraction.csv", "reuse_timeline.csv"):
            assert _read(os.path.join(out, name)) == _read(os.path.join(GOLDEN, name))
        assert _read(os.path.join(out, "runs_test.csv")) == "key_or_request,p_value,n1,n2,runs\n"

        summary = json.loads(_read(os.path.join(out, "summary.json")))
        assert summary["requests"] == 6
        assert summary["nonempty_requests"] == 5
        assert summary["avg_sequential_fraction"] == pytest.approx(0.8)
        assert summary["hit_rate"]["mean"] == pytest.approx(13 / 30)
        assert summary["hit_rate"]["p50"] == pytest.approx(1 / 6)
        assert summary["hit_rate"]["fraction_above_half"] == pytest.approx(0.4)
        assert summary["runs_test"]["per_key_gaps"] == {
            "fraction_random": None,
            "tested": 0,
            "skipped": 3,
        }
        assert "per_request_median" in summary["runs_test"]

        manifest = json.loads(_read(os.path.join(out, "manifest.json")))
        assert manifest["trace_sha256"] == report.sha256_file(trace_file)
        assert manifest["trace_label"] == "fixture6.jsonl"
        assert manifest["aborted"] is False

    def test_analyze_rejects_a_bucket_width_below_one_before_reading(
            self, trace_file, tmp_path, capsys):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", trace_file, "--out", str(out), "--bucket-seconds", "0"])
        assert exc.value.code == 2
        assert "argument --bucket-seconds: must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_analyze_missing_trace(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_analyze_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        rc = main(["analyze", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "line 1" in capsys.readouterr().err


class TestBench:
    def test_bench_preload_zero_misses(self, trace_file, tmp_path, capsys):
        out = str(tmp_path / "bench")
        rc = main(
            ["bench", trace_file, "--out", out, "--backend", "inproc",
             "--mode", "preload", "--warmup", "0", "--interval", "30"]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "misses=0" in printed
        assert "p99 point_get" in printed and "p99 range_scan" in printed

        log_lines = _read(os.path.join(out, "latency_log.csv")).splitlines()
        assert log_lines[0] == "op_kind,issue_ms,latency_ns,outcome"
        assert len(log_lines) == 1 + 10  # fixture compiles to 10 ops
        assert all(line.endswith(",ok") for line in log_lines[1:])

        stats_lines = _read(os.path.join(out, "interval_stats.csv")).splitlines()
        assert stats_lines[0] == "interval_index,op_kind,count,p50_ns,p99_ns"
        assert len(stats_lines) > 1

    def test_bench_with_cache_config_and_chunk_split(self, trace_file, tmp_path):
        out = str(tmp_path / "bench2")
        rc = main(
            ["bench", trace_file, "--out", out, "--warmup", "0",
             "--backend", "inproc:policy=lru_pin,capacity=64,pin=16",
             "--mode", "insert_on_miss", "--chunk-split", "2"]
        )
        assert rc == 0
        manifest = json.loads(_read(os.path.join(out, "manifest.json")))
        assert manifest["config"]["chunk_split"] == 2
        assert manifest["backend"] == "inproc:policy=lru_pin,capacity=64,pin=16"

    def test_bench_remote_loopback_matches_inproc(self, trace_file, tmp_path):
        from kvcmeta.service import serve

        store = HybridMetaStore()
        handle = serve(("127.0.0.1", 0), store)
        try:
            host, port = handle.address
            out_r = str(tmp_path / "remote")
            rc = main(
                ["bench", trace_file, "--out", out_r, "--warmup", "0",
                 "--backend", f"remote:{host}:{port}", "--mode", "preload"]
            )
            assert rc == 0
        finally:
            handle.stop()
        out_l = str(tmp_path / "local")
        assert main(["bench", trace_file, "--out", out_l, "--warmup", "0"]) == 0

        def outcomes(path):
            return [
                (ln.split(",")[0], ln.split(",")[3])
                for ln in _read(os.path.join(path, "latency_log.csv")).splitlines()[1:]
            ]

        assert outcomes(out_r) == outcomes(out_l)


class TestSynthCmd:
    def test_synth_deterministic_outputs(self, tmp_path):
        cfg = os.path.join(CONFIGS, "cookbook_toolagent.json")
        out1, out2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert main(["synth", "--config", cfg, "--out", out1]) == 0
        assert main(["synth", "--config", cfg, "--out", out2]) == 0
        assert report.sha256_file(out1) == report.sha256_file(out2)
        fit = json.loads(_read(out1 + ".fit.json"))
        assert abs(fit["deviations"]["seq_fraction"]) <= 0.05
        assert os.path.exists(out1 + ".manifest.json")

    def test_synth_empty_config_fails(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        with open(os.path.join(CONFIGS, "cookbook_toolagent.json")) as fh:
            raw = json.load(fh)
        raw["num_requests"] = 0
        cfg_path.write_text(json.dumps(raw))
        rc = main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "t.jsonl")])
        assert rc == 1
        assert "empty trace" in capsys.readouterr().err

    def test_synth_nan_reuse_bias_fails_with_field_message(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        with open(os.path.join(CONFIGS, "cookbook_toolagent.json")) as fh:
            raw = json.load(fh)
        raw["reuse_bias"] = float("nan")
        cfg_path.write_text(json.dumps(raw))  # written as NaN, which json.load reads back
        rc = main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "t.jsonl")])
        assert rc == 1
        assert "error: reuse_bias must be >= 0" in capsys.readouterr().err

    def test_synth_invalid_config_fails_with_field_message(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"num_requests": 5}))
        rc = main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "t.jsonl")])
        assert rc == 1
        assert "invalid synth config" in capsys.readouterr().err


def _write_stats_csv(path, cells):
    lines = ["interval_index,op_kind,count,p50_ns,p99_ns"]
    for (idx, kind), p99 in sorted(cells.items()):
        lines.append(f"{idx},{kind},10,{p99},{p99}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class TestReportCmd:
    def test_two_inputs_golden_ratios(self, tmp_path):
        base = str(tmp_path / "base.csv")
        cand = str(tmp_path / "cand.csv")
        _write_stats_csv(base, {(10, "point_get"): 100, (11, "point_get"): 200})
        _write_stats_csv(cand, {(10, "point_get"): 50, (11, "point_get"): 100})
        out = str(tmp_path / "rep")
        rc = main(["report", f"redis={base}", f"ours={cand}",
                   "--baseline", "redis", "--out-dir", out])
        assert rc == 0
        assert _read(os.path.join(out, "normalized.csv")) == (
            "interval_index,op_kind,ratio\n10,point_get,0.5\n11,point_get,0.5\n"
        )
        svg = _read(os.path.join(out, "p99_norm_point_get.svg"))
        assert svg.startswith("<svg") and "redis" in svg and "ours" in svg

    def test_single_input_self_baseline_flat_ones(self, tmp_path):
        only = str(tmp_path / "only.csv")
        _write_stats_csv(only, {(10, "range_scan"): 70, (12, "range_scan"): 90})
        out = str(tmp_path / "rep")
        assert main(["report", f"solo={only}", "--out-dir", out]) == 0
        body = _read(os.path.join(out, "normalized.csv")).splitlines()[1:]
        assert all(line.endswith(",1.0") for line in body)

    def test_mismatched_grids_error_lists_cells(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        _write_stats_csv(a, {(10, "point_get"): 100})
        _write_stats_csv(b, {(11, "point_get"): 100})
        rc = main(["report", f"a={a}", f"b={b}", "--out-dir", str(tmp_path / "rep")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "mismatched interval grids" in err and "missing" in err

    def test_unknown_baseline_label(self, tmp_path, capsys):
        a = str(tmp_path / "a.csv")
        _write_stats_csv(a, {(10, "point_get"): 100})
        rc = main(["report", f"a={a}", "--baseline", "zz", "--out-dir", str(tmp_path / "r")])
        assert rc == 1
        assert "baseline" in capsys.readouterr().err

    def test_cdf_chart_from_csv(self, tmp_path, trace_file):
        out_a = str(tmp_path / "an")
        assert main(["analyze", trace_file, "--out", out_a]) == 0
        only = str(tmp_path / "s.csv")
        _write_stats_csv(only, {(10, "point_get"): 5})
        out = str(tmp_path / "rep")
        rc = main(["report", f"x={only}", "--out-dir", out,
                   "--cdf", os.path.join(out_a, "hit_rate_cdf.csv")])
        assert rc == 0
        svg = _read(os.path.join(out, "hit_rate_cdf.svg"))
        assert svg.startswith("<svg")

    @pytest.mark.parametrize("bad", ["0.5", "0.5,1.0,7"], ids=["short", "extra"])
    def test_cdf_bad_row_names_file_and_line(self, tmp_path, capsys, bad):
        only = str(tmp_path / "s.csv")
        _write_stats_csv(only, {(10, "point_get"): 5})
        cdf = tmp_path / "cdf.csv"
        cdf.write_text(f"hit_rate,cum_fraction\n0.0,0.5\n{bad}\n1.0,1.0\n")
        rc = main(["report", f"x={only}", "--out-dir", str(tmp_path / "rep"),
                   "--cdf", str(cdf)])
        assert rc == 1
        assert f"error: {cdf}:3: " in capsys.readouterr().err

    def test_manifest_records_the_package_version(self, tmp_path):
        only = str(tmp_path / "s.csv")
        _write_stats_csv(only, {(10, "point_get"): 5})
        out = str(tmp_path / "rep")
        assert main(["report", f"x={only}", "--out-dir", out]) == 0
        manifest = json.loads(_read(os.path.join(out, "manifest.json")))
        assert manifest["version"] == kvcmeta.__version__


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == kvcmeta.__version__


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestServeCmd:
    def test_serve_subprocess_graceful_drain(self, trace_file, tmp_path):
        port = _free_port()
        proc = subprocess.Popen(
            [sys.executable, "-m", "kvcmeta.cli", "serve",
             "--listen", f"127.0.0.1:{port}", "--stats-interval", "0.5"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.time() + 10
            backend = None
            while time.time() < deadline:
                try:
                    backend = RemoteBackend("127.0.0.1", port, timeout=2.0)
                    backend.stats()
                    break
                except Exception:
                    backend = None
                    time.sleep(0.1)
            assert backend is not None, "server did not come up"
            backend.close()

            out = str(tmp_path / "remote-bench")
            rc = main(
                ["bench", trace_file, "--out", out, "--warmup", "0",
                 "--backend", f"remote:127.0.0.1:{port}", "--mode", "preload"]
            )
            assert rc == 0
            lines = _read(os.path.join(out, "latency_log.csv")).splitlines()[1:]
            assert all(line.endswith(",ok") for line in lines)

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()  # reaps the child and closes both pipes

    # Each stop test runs serve in a child that it kills (SIGKILL) if it has
    # not exited in time: a hung serve may ignore SIGTERM for good.
    SERVE = 'sys.exit(cli.main(["serve", "--listen", "127.0.0.1:0", "--stats-interval", "%s"]))'

    def _run_serve(self, prelude: str, interval: float, *argv: str) -> str:
        script = textwrap.dedent(prelude) + self.SERVE % interval
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, timeout=30, check=False,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 0, proc.stderr
        assert "drained, bye" in proc.stderr
        return proc.stderr

    def test_serve_drains_on_a_signal_inside_its_own_wait(self):
        # The signal arrives while the main thread is inside its first timed
        # wait, holding whatever lock that wait holds.
        prelude = """
            import os, select, signal, sys, threading
            from kvcmeta import cli
            fired = []
            def signal_on_first_timed_wait(owner, name, timeout_at):
                real = getattr(owner, name)
                def wait(*args, **kwargs):
                    timeout = args[timeout_at] if len(args) > timeout_at else kwargs.get("timeout")
                    if (timeout is not None and not fired
                            and threading.current_thread() is threading.main_thread()):
                        fired.append(True)
                        os.kill(os.getpid(), signal.SIGTERM)
                    return real(*args, **kwargs)
                setattr(owner, name, wait)
            signal_on_first_timed_wait(threading.Condition, "wait", 1)
            signal_on_first_timed_wait(select, "select", 3)
        """
        assert "signal 15: draining" in self._run_serve(prelude, 3600)

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_serve_drains_on_a_signal_to_another_thread(self, signum):
        # A thread started before serve (as perfbench/server.py starts its
        # stdin thread) signals the process while the main thread is in a
        # slow stats call, away from its wait.
        prelude = """
            import os, sys, threading, time
            from kvcmeta import cli
            from kvcmeta.store import HybridMetaStore
            in_stats = threading.Event()
            real_stats = HybridMetaStore.stats
            def slow_stats(self):
                in_stats.set()
                time.sleep(1.0)
                return real_stats(self)
            HybridMetaStore.stats = slow_stats
            def signal_during_stats():
                in_stats.wait()
                os.kill(os.getpid(), int(sys.argv[1]))
            threading.Thread(target=signal_during_stats, daemon=True).start()
        """
        assert f"signal {int(signum)}: draining" in self._run_serve(prelude, 0.01, str(int(signum)))

    def test_serve_on_a_port_already_bound_exits_1(self):
        with socket.create_server(("127.0.0.1", 0)) as taken:
            proc = subprocess.run(
                [sys.executable, "-m", "kvcmeta.cli", "serve",
                 "--listen", "127.0.0.1:%d" % taken.getsockname()[1]],
                capture_output=True, text=True, timeout=30, check=False,
                env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 1
        assert "bind failed" in proc.stderr

    def test_serve_answers_and_drains_while_a_client_keeps_it_busy(self):
        """A client process whose next gets are always there (one thread sends
        them without end, another reads the replies) keeps the serve child,
        whose gets cost 50 us each, from neither answering a second connection
        nor draining on SIGTERM."""
        drain_s = 1.0
        prelude = f"""
            import sys, time
            from kvcmeta import cli, service
            from kvcmeta.store import HybridMetaStore
            service.StoreServer.DRAIN_S = {drain_s}
            real_get = HybridMetaStore.get
            def slow_get(self, key):
                until = time.perf_counter() + 50e-6
                while time.perf_counter() < until:
                    pass
                return real_get(self, key)
            HybridMetaStore.get = slow_get
        """
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(prelude) + self.SERVE % 3600],
            stderr=subprocess.PIPE, text=True, env=env)
        busy = None
        try:
            while "serving on" not in (line := proc.stderr.readline()):
                assert line, "serve exited before it bound"
            port = int(line.rsplit(":", 1)[1])
            busy = subprocess.Popen([sys.executable, "-c", textwrap.dedent(f"""
                import socket, threading
                from kvcmeta import protocol as wire
                sock = socket.create_connection(("127.0.0.1", {port}))
                get = wire.encode_request((wire.OP_GET, bytes(32)))
                def feed():
                    try:
                        while True:
                            sock.sendall(get * 1_024)
                    except OSError:  # the drain closed the connection
                        pass
                threading.Thread(target=feed, daemon=True).start()
                reader, gets = wire.FrameReader(sock, bytearray()), 0
                try:
                    while wire.read_frame(reader):
                        gets += 1
                        if gets == 4_096:
                            print("busy", flush=True)
                except OSError:
                    pass
                print(gets)
            """)], stdout=subprocess.PIPE, text=True, env=env)
            assert busy.stdout.readline() == "busy\n"
            with RemoteBackend("127.0.0.1", port, timeout=5.0) as other:
                started = time.monotonic()
                assert other.get(bytes(32)) is None
                assert time.monotonic() - started < 1.0
            assert busy.poll() is None
            started = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=drain_s + 10) == 0
            assert time.monotonic() - started < drain_s + 2.0
            assert int(busy.communicate(timeout=10)[0]) > 4_096
        finally:
            for child in (proc, busy):
                if child is not None:
                    if child.poll() is None:
                        child.kill()
                    child.communicate()

    @pytest.mark.parametrize("interval", ["0", "-1", "nan", "1e300"])
    def test_stats_interval_must_be_a_positive_wait(self, interval, capsys):
        with pytest.raises(SystemExit) as exc:  # parse only: serve would not return
            build_parser().parse_args(["serve", "--stats-interval", interval])
        assert exc.value.code == 2
        assert "--stats-interval: must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, message", [
        ("--listen", "127.0.0.1:99999", "expected host:port with a port of at most 65535"),
        ("--cache", "policy=lru_pin,capacity=8,halflife=nan", "hotness_halflife_s must be positive"),
    ])
    def test_serve_rejects_a_bad_port_or_halflife_before_serving(
            self, option, value, message, capsys, monkeypatch):
        from kvcmeta import cli
        monkeypatch.setattr(cli, "serve", lambda *args: pytest.fail("served"))
        assert main(["serve", option, value]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("entries", ["0", "-5"])
    def test_max_entries_must_be_at_least_one(self, entries, capsys):
        with pytest.raises(SystemExit) as exc:  # parse only: serve would not return
            build_parser().parse_args(["serve", "--max-entries", entries])
        assert exc.value.code == 2
        assert f"--max-entries: must be at least 1, got {entries}" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--mode", "--schedule", "--key-scheme"])
def test_bench_rejects_an_unknown_choice(option, trace_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", trace_file, "--out", str(tmp_path / "o"), option, "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: kvcmeta bench ")
    assert f"argument {option}: invalid choice: 'bogus'" in err


@pytest.mark.parametrize("option, value, message", [
    ("--interval", "0", "must be at least 1"),
    ("--interval", "-1", "must be at least 1"),
    ("--warmup", "-1", "must be at least 0"),
    ("--workers", "0", "must be at least 1"),
    ("--time-scale", "0", "must be positive and at most 1.79769e+308"),
    ("--time-scale", "inf", "must be positive and at most 1.79769e+308"),
    ("--chunk-split", "0", "must be at least 1"),
    ("--timeout", "0", "must be positive and at most 9.22337e+09"),
    ("--abort-error-rate", "nan", "must be finite and at least 0"),
    ("--abort-error-rate", "inf", "must be finite and at least 0"),
    ("--abort-error-rate", "-0.5", "must be finite and at least 0"),
])
def test_bench_rejects_a_bad_interval_or_warmup_before_compiling(
        option, value, message, trace_file, tmp_path, capsys, monkeypatch):
    from kvcmeta import bench
    monkeypatch.setattr(bench, "compile_ops", lambda *args, **kwargs: pytest.fail("compiled"))
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["bench", trace_file, "--out", str(out), option, value])
    assert exc.value.code == 2
    assert f"argument {option}: {message}, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["0", "1.0"])
def test_bench_accepts_an_abort_error_rate_of_zero_or_one(rate):
    args = build_parser().parse_args(["bench", "t.jsonl", "--out", "o", "--abort-error-rate", rate])
    assert args.abort_error_rate == float(rate)


def test_serve_imports_only_what_it_serves():
    """A serve process (perfbench/server.py imports ``cli`` and ``protocol``
    and builds the parser) loads no analysis, benchmark, synthesis, report or
    trace code, nor ``socketserver`` or ``dataclasses`` (with ``inspect``, ~7 ms
    of its start); the package's public names still all resolve on first use."""
    script = """if True:
        import json, sys
        from kvcmeta import cli, protocol
        cli.build_parser()
        print(json.dumps([[m for m in sys.modules if m.startswith("kvcmeta.")],
                          [m for m in ("socketserver", "dataclasses") if m in sys.modules]]))
        import kvcmeta
        for name in kvcmeta.__all__:
            getattr(kvcmeta, name)
        try:
            kvcmeta.no_such_name
        except AttributeError:
            pass
        else:
            raise SystemExit("an unknown name resolved")
        star = {}
        exec("from kvcmeta import *", star)
        missing = set(kvcmeta.__all__) - set(star)
        if missing:
            raise SystemExit(f"import * missed {sorted(missing)}")
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, check=False, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    loaded, stdlib = json.loads(proc.stdout)
    assert sorted(loaded) == ["kvcmeta.cli", "kvcmeta.protocol", "kvcmeta.service",
                              "kvcmeta.store"]
    assert stdlib == []


class TestSvgRendering:
    def test_line_chart_is_deterministic(self):
        series = [("a", [(0.0, 1.0), (1.0, 2.0)]), ("b", [(0.0, 2.0), (1.0, 1.0)])]
        one = report.svg_line_chart(series, "t", "x", "y")
        two = report.svg_line_chart(series, "t", "x", "y")
        assert one == two
        assert one.startswith("<svg") and one.rstrip().endswith("</svg>")

    def test_cdf_chart_x_domain_is_unit_interval(self):
        # hit rate 1.0 must land on the plot's right edge (fixed layout: x=624)
        svg = report.svg_cdf_chart([(0.5, 0.4), (1.0, 1.0)])
        assert "624.0," in svg
        # and the axis ticks span 0..1
        assert ">0<" in svg and ">1<" in svg

    def test_escaping(self):
        svg = report.svg_line_chart([("a<b", [(0.0, 1.0)])], "t&t", "x", "y")
        assert "a&lt;b" in svg and "t&amp;t" in svg


class TestBenchFailurePaths:
    def test_backend_unavailable_at_start_aborts(self, trace_file, tmp_path, capsys):
        rc = main(
            ["bench", trace_file, "--out", str(tmp_path / "x"),
             "--backend", "remote:127.0.0.1:1", "--timeout", "0.3"]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_timeout_zero_is_rejected_before_any_op(self, trace_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", trace_file, "--out", str(tmp_path / "x"),
                  "--backend", "remote:127.0.0.1:1", "--timeout", "0"])
        assert exc.value.code == 2
        assert "argument --timeout: must be positive and at most" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_timeout_beyond_a_socket_timeout_is_an_error_line(self, trace_file, tmp_path,
                                                               capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", trace_file, "--out", str(tmp_path / "x"),
                  "--backend", "remote:127.0.0.1:1", "--timeout", "1e300"])
        assert exc.value.code == 2
        assert "argument --timeout: must be positive and at most" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_abort_threshold_marks_partial_outputs(self, trace_file, tmp_path, monkeypatch, capsys):
        from kvcmeta import bench as bench_mod

        def fake_replay(*args, **kwargs):
            log = bench_mod.LatencyLog(
                records=[bench_mod.LatencyRecord("point_get", 0, 5, "error:TransportError")]
            )
            log.errors = 1
            raise bench_mod.ReplayAborted("error budget exhausted: injected", log)

        monkeypatch.setattr(bench_mod, "replay", fake_replay)
        out = str(tmp_path / "aborted")
        rc = main(["bench", trace_file, "--out", out, "--warmup", "0"])
        assert rc == 1
        assert "replay aborted" in capsys.readouterr().err
        assert os.path.exists(os.path.join(out, "ABORTED"))
        assert os.path.exists(os.path.join(out, "latency_log.csv"))
        manifest = json.loads(_read(os.path.join(out, "manifest.json")))
        assert manifest["aborted"] is True


def test_external_backend_without_redis_raises_helpfully():
    try:
        import redis  # noqa: F401
    except ImportError:
        with pytest.raises(RuntimeError, match="redis"):
            from kvcmeta.external import ExternalBackend
            ExternalBackend("127.0.0.1:6379")
    else:
        pytest.skip("redis installed; missing-dependency path not reachable")
