"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "FilterKV" in out and "CLUSTER 2019" in out


def test_machines(capsys):
    main(["machines"])
    out = capsys.readouterr().out
    assert "narwhal" in out and "trinity-knl" in out


def test_table1(capsys):
    main(["table1"])
    out = capsys.readouterr().out
    assert "Trinity" in out and "b2" in out


def test_compare(capsys):
    main(["compare", "--ranks", "4", "--records", "500", "--value-bytes", "24"])
    out = capsys.readouterr().out
    assert "filterkv" in out and "dataptr" in out and "base" in out
    assert "net B/rec" in out


def test_advise(capsys):
    main(["advise", "--machine", "narwhal", "--procs", "256"])
    out = capsys.readouterr().out
    assert "recommended format" in out


def test_advise_unknown_machine():
    with pytest.raises(SystemExit):
        main(["advise", "--machine", "bluegene"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("argv", [
    "compact --epochs 1",  # was AttributeError: nothing to compact
    "compact --epochs 0",  # was ValueError: need at least one array to concatenate
    "compact --probes 0",  # was ZeroDivisionError
    "compare --records 0",  # was ZeroDivisionError
    "metrics --records 0",  # was IndexError
    "loadgen --format base --records 0",  # was a reshape ValueError
    "compare --ranks 1",  # the rest were library ValueError tracebacks
    "recover --ranks 1",
    "loadgen --requests 0",
    "fleet --shards 0",
    "serve --max-batch 0",  # these were ValueError tracebacks after the build
    "serve --max-inflight 0",
    "serve --queue-high-watermark 0",
    "fleet --rf 0",
    "fleet --vnodes 0",
    "loadgen --concurrency 0",  # these two quietly ran one worker
    "fleet --concurrency 0",
])
def test_count_flags_below_their_floor_are_usage_errors(argv, capsys):
    """A count below its floor exits 2 naming the flag, before any run."""
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    flag = argv.split()[-2]
    assert f"argument {flag}: must be >= " in capsys.readouterr().err


@pytest.mark.parametrize("argv, want", [
    ("serve --trace-sample 2", "a rate in [0, 1]"),  # was a ValueError after the build
    ("loadgen --trace-sample 2", "a rate in [0, 1]"),
    ("loadgen --trace-sample nan", "a rate in [0, 1]"),
    ("serve --stats-window 0", "a finite number of seconds > 0"),
    ("serve --stats-window inf", "a finite number of seconds > 0"),
    ("top --port 1 --window 0", "a finite number of seconds > 0"),
])
def test_rate_and_window_flags_out_of_range_are_usage_errors(argv, want, capsys):
    """A sampling rate outside [0, 1] or a window that is no positive,
    finite time exits 2 naming the flag, before any run."""
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    flag = argv.split()[-2]
    assert f"argument {flag}: must be {want}" in capsys.readouterr().err


def test_metrics_command_out_file(tmp_path, capsys):
    import json

    out = tmp_path / "m.json"
    main(["metrics", "--ranks", "4", "--records", "400", "--queries", "32", "--out", str(out)])
    assert capsys.readouterr().out.startswith("metrics: ")
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.metrics/v1"
    names = {m["name"] for m in doc["metrics"]}
    # one JSON document spans every instrumented layer
    assert {
        "pipeline.wire_bytes",
        "aux.probes",
        "aux.false_candidates",
        "storage.bytes_written",
        "reader.read_amplification",
    } <= names
    wire = {
        m["labels"]["format"]: 0.0 for m in doc["metrics"] if m["name"] == "pipeline.wire_bytes"
    }
    for m in doc["metrics"]:
        if m["name"] == "pipeline.wire_bytes":
            wire[m["labels"]["format"]] += m["value"]
    assert wire["filterkv"] == 8 * 4 * 400
    assert wire["dataptr"] == 16 * 4 * 400


def test_metrics_command_stdout(capsys):
    import json

    main(["metrics", "--format", "filterkv", "--ranks", "4", "--records", "300", "--queries", "16"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro.metrics/v1"
    assert all(m["labels"]["format"] == "filterkv" for m in doc["metrics"])


def test_metrics_command_jsonl_file(tmp_path, capsys):
    import json

    out = tmp_path / "m.jsonl"
    main(
        [
            "metrics", "--format", "base", "--ranks", "4", "--records", "200",
            "--queries", "0", "--jsonl", "--out", str(out),
        ]
    )
    assert str(out) in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines and all(json.loads(ln)["labels"]["format"] == "base" for ln in lines)


def test_loadgen_command(capsys):
    main(
        [
            "loadgen", "--format", "filterkv", "--ranks", "4", "--records", "200",
            "--requests", "300", "--concurrency", "8",
        ]
    )
    out = capsys.readouterr().out
    assert "filterkv" in out and "qps" in out and "rc hits" in out
    assert "0/300" in out  # zero incorrect responses


def test_loadgen_command_json_out(tmp_path, capsys):
    import json

    path = tmp_path / "load.json"
    main(
        [
            "loadgen", "--format", "base", "--ranks", "4", "--records", "150",
            "--requests", "200", "--distribution", "uniform", "--json-out", str(path),
        ]
    )
    assert str(path) in capsys.readouterr().out
    doc = json.loads(path.read_text())
    assert doc[0]["format"] == "base"
    assert doc[0]["report"]["requests"] == 200
    assert doc[0]["report"]["incorrect"] == 0
    assert doc[0]["service"]["requests"]["ok"] == 200


def test_serve_parser_accepts_options():
    args = build_parser().parse_args(
        ["serve", "--ranks", "4", "--records", "100", "--port", "9999"]
    )
    assert args.command == "serve" and args.port == 9999 and args.fmt == "filterkv"


def test_loadgen_command_with_tracing(tmp_path, capsys):
    import json

    trace_path = tmp_path / "traces.jsonl"
    chrome_path = tmp_path / "chrome.json"
    main(
        [
            "loadgen", "--format", "filterkv", "--ranks", "4", "--records", "150",
            "--requests", "200", "--trace-sample", "0.2",
            "--trace-out", str(trace_path), "--chrome-trace-out", str(chrome_path),
        ]
    )
    out = capsys.readouterr().out
    assert "p95 ms" in out and "traces ->" in out
    from repro.obs import span_from_dict

    lines = trace_path.read_text().splitlines()
    assert json.loads(lines[0]) == {"schema": "repro.trace/v1"}
    spans = [span_from_dict(json.loads(line)) for line in lines[1:]]
    assert spans, "trace export produced no spans"
    names = {s.name for s in spans}
    assert "client.get" in names and "serve.get" in names
    doc = json.loads(chrome_path.read_text())
    assert doc["traceEvents"] and doc["metadata"]["schema"] == "repro.trace/v1"


def test_top_command_renders_live_dashboard():
    # Drive the dashboard's frame renderer with the real verb payloads:
    # serve over TCP, answer queries, fetch stats_live/stats/traces, and
    # render exactly what one `repro top` refresh prints.
    import argparse as _ap
    import asyncio

    from repro.cli import _build_served_store
    from repro.obs import TraceCollector
    from repro.serve import QueryService, ServeServer, TCPClient

    store_args = _ap.Namespace(fmt="filterkv", ranks=4, records=100, epochs=1,
                               value_bytes=24, seed=0)
    store, keys, _ = _build_served_store(store_args)

    async def dashboard_flow():
        service = QueryService(store, tracer=TraceCollector(sample_rate=1.0))
        async with ServeServer(service) as server:
            async with TCPClient(server.host, server.port) as client:
                for k in keys[:20]:
                    await client.get(int(k))
                live = await client.stats_live()
                stats = await client.stats()
                traces = await client.traces(1)
        from repro.cli import _render_top_frame

        return _render_top_frame(live, stats, traces, f"{server.host}:{server.port}")

    frame = asyncio.run(dashboard_flow())
    assert "repro top — filterkv" in frame
    assert "qps" in frame and "latency" in frame and "caches" in frame
    assert "serve.get" in frame  # the rendered span tree


def test_top_parser_defaults():
    args = build_parser().parse_args(["top", "--port", "1234"])
    assert args.command == "top" and args.interval == 2.0 and args.iterations == 0
