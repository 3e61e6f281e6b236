"""Command-line interface: subcommands, output files, exit codes."""

from __future__ import annotations

import gc
import json

import pytest

from netchart import (
    cli,
    parse_chart,
    parse_net,
    parse_trace,
    transform,
    write_chart,
    write_net,
    write_trace,
)
from netchart.cli import main
from support import chart_signature, diamond, three_cycle


def _net_file(tmp_path, net, name="net.xml", format="xml"):
    path = tmp_path / name
    path.write_bytes(write_net(net, format))
    return path


def test_transform_writes_the_chart(tmp_path, capsys):
    inp = _net_file(tmp_path, diamond())
    out = tmp_path / "chart.xml"
    assert main(["transform", "--input", str(inp), "--output", str(out)]) == 0
    chart = parse_chart(out.read_bytes())
    assert chart_signature(chart) == "and(or(and(or(b[a]),or(b[b])),b[q],b[r]))"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("enabled", [True, False])
def test_transform_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, enabled):
    seen = []
    monkeypatch.setattr(cli, "transform", lambda net: seen.append(gc.isenabled()) or transform(net))
    inp = _net_file(tmp_path, diamond())
    out, trace_path = tmp_path / "chart.json", tmp_path / "trace.json"
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["transform", "--input", str(inp), "--output", str(out),
                     "--trace", str(trace_path)]) == 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]
    chart, _, trace = transform(diamond())
    assert out.read_bytes() == write_chart(chart, "json")
    assert trace_path.read_bytes() == write_trace(trace)


def test_transform_format_follows_the_output_suffix(tmp_path):
    inp = _net_file(tmp_path, diamond())
    out = tmp_path / "chart.json"
    assert main(["transform", "--input", str(inp), "--output", str(out)]) == 0
    doc = json.loads(out.read_bytes())
    assert doc["name"] == "D1"
    out2 = tmp_path / "chart2.out"
    assert main(["transform", "--input", str(inp), "--output", str(out2),
                 "--format", "json"]) == 0
    assert out2.read_bytes() == out.read_bytes()


def test_transform_writes_the_trace(tmp_path):
    inp = _net_file(tmp_path, diamond(), format="json")
    out = tmp_path / "chart.xml"
    trace_path = tmp_path / "trace.json"
    assert main(["transform", "--input", str(inp), "--output", str(out),
                 "--trace", str(trace_path)]) == 0
    entries = parse_trace(trace_path.read_bytes())
    assert len(entries) == 13
    assert entries[0].rule == "AndRulePlace2Or"


def test_transform_prints_stats(tmp_path, capsys):
    inp = _net_file(tmp_path, diamond())
    out = tmp_path / "chart.xml"
    assert main(["transform", "--input", str(inp), "--output", str(out),
                 "--stats"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "and applications:      1" in lines
    assert "or applications:       2" in lines
    assert "fully reduced:         yes" in lines


def test_transform_exit_3_when_reduction_is_partial(tmp_path, capsys):
    inp = _net_file(tmp_path, three_cycle())
    out = tmp_path / "chart.xml"
    code = main(["transform", "--input", str(inp), "--output", str(out),
                 "--require-full-reduction"])
    assert code == 3
    # the chart is written anyway; only the exit code signals the miss
    assert parse_chart(out.read_bytes()).name == "cycle3"
    err = capsys.readouterr().err
    assert "did not fully reduce" in err and "2 places" in err


def test_transform_without_the_flag_accepts_partial_reduction(tmp_path):
    inp = _net_file(tmp_path, three_cycle())
    out = tmp_path / "chart.xml"
    assert main(["transform", "--input", str(inp), "--output", str(out)]) == 0


def test_missing_input_exits_1(tmp_path, capsys):
    out = tmp_path / "chart.xml"
    code = main(["transform", "--input", str(tmp_path / "absent.xml"),
                 "--output", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_input_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_bytes(b"<petrinet name='x'><place</petrinet>")
    code = main(["transform", "--input", str(bad), "--output", str(tmp_path / "c.xml")])
    assert code == 1
    assert "xml syntax error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data",
    [b'{"name": "n\xff\xfe", "places": [], "transitions": []}', b"[" * 100000],
    ids=["invalid-utf8", "deep-nesting"],
)
def test_undecodable_json_exits_1(tmp_path, capsys, data):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    assert main(["validate", "--net", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: json document ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "error, message",
    [(RecursionError, "input nested too deeply"), (MemoryError, "out of memory")],
)
@pytest.mark.parametrize("command", ["transform", "validate"])
def test_interpreter_limits_exit_1_without_a_traceback(
    tmp_path, capsys, monkeypatch, command, error, message
):
    def handler(args):
        raise error("raised by the handler")

    monkeypatch.setattr(cli, f"_cmd_{command}", handler)
    inp = _net_file(tmp_path, diamond())
    argv = (["transform", "--input", str(inp), "--output", str(tmp_path / "c.xml")]
            if command == "transform" else ["validate", "--net", str(inp)])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("format", ["xml", "json"])
def test_validate_accepts_a_utf8_byte_order_mark(tmp_path, capsys, format):
    path = tmp_path / f"net.{format}"
    path.write_bytes(b"\xef\xbb\xbf" + write_net(diamond(), format))
    assert main(["validate", "--net", str(path)]) == 0
    assert "net 'D1': OK (4 places, 2 transitions)" in capsys.readouterr().out


def test_semantic_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_bytes(b'<petrinet name="n"><place id="p"/>'
                    b'<transition id="t" src="p" tgt="ghost"/></petrinet>')
    code = main(["transform", "--input", str(bad), "--output", str(tmp_path / "c.xml")])
    assert code == 2
    assert "ghost" in capsys.readouterr().err


@pytest.mark.parametrize("char", ["\x01", "\ufffe", "\ud800"])
def test_xml_output_refuses_characters_xml_cannot_carry(tmp_path, capsys, char):
    net = diamond()
    net.name = f"D{char}"
    inp = _net_file(tmp_path, net, "net.json", "json")
    out = tmp_path / "chart.xml"
    assert main(["transform", "--input", str(inp), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()
    out = tmp_path / "chart.json"
    assert main(["transform", "--input", str(inp), "--output", str(out)]) == 0
    assert parse_chart(out.read_bytes()).name == net.name


def test_usage_errors_exit_1(capsys):
    assert main(["transform", "--input", "x"]) == 1  # --output missing
    assert main(["--nope"]) == 1
    assert main([]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "transform" in capsys.readouterr().out


def test_generate_then_validate(tmp_path, capsys):
    out = tmp_path / "net.xml"
    assert main(["generate", "--places", "30", "--seed", "4",
                 "--out", str(out)]) == 0
    net = parse_net(out.read_bytes())
    assert len(net.places) == 30
    assert main(["validate", "--net", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "net 'sp30-mt19937-seed4': OK (30 places," in printed


def test_generate_json_output(tmp_path):
    out = tmp_path / "net.json"
    assert main(["generate", "--places", "6", "--seed", "1",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_bytes())["name"] == "sp6-mt19937-seed1"


def test_generate_is_reproducible(tmp_path):
    a, b = tmp_path / "a.xml", tmp_path / "b.xml"
    for path in (a, b):
        assert main(["generate", "--places", "44", "--seed", "9",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_bad_specs(tmp_path, capsys):
    out = tmp_path / "net.xml"
    assert main(["generate", "--places", "0", "--seed", "1",
                 "--out", str(out)]) == 2
    assert ">= 1" in capsys.readouterr().err


def test_validate_chart_file(tmp_path, capsys):
    inp = _net_file(tmp_path, diamond())
    out = tmp_path / "chart.xml"
    main(["transform", "--input", str(inp), "--output", str(out)])
    assert main(["validate", "--chart", str(out)]) == 0
    assert "chart 'D1': OK (9 states, 2 hyperedges)" in capsys.readouterr().out


def test_validate_warns_about_self_loops(tmp_path, capsys):
    path = tmp_path / "net.xml"
    path.write_bytes(b'<petrinet name="n"><place id="p"/><place id="q"/>'
                     b'<transition id="t" src="p" tgt="p q"/></petrinet>')
    assert main(["validate", "--net", str(path)]) == 0
    out = capsys.readouterr().out
    assert "warning: place 'p' is on a self-loop" in out
    assert "net 'n': OK" in out


def test_validate_rejects_invalid_chart(tmp_path, capsys):
    path = tmp_path / "chart.xml"
    path.write_bytes(b'<statechart name="c"><and id="s0"><or id="s1">'
                     b'<and id="s2"><or id="s3"><basic id="s4" place="p"/></or></and>'
                     b'</or></and></statechart>')
    assert main(["validate", "--chart", str(path)]) == 2
    err = capsys.readouterr().err
    assert "not well formed" in err
    assert "fewer than 2 children" in err


def test_validate_needs_exactly_one_target(tmp_path, capsys):
    assert main(["validate"]) == 1
    inp = _net_file(tmp_path, diamond())
    assert main(["validate", "--net", str(inp), "--chart", str(inp)]) == 1
    capsys.readouterr()


def test_bench_table_output(capsys):
    assert main(["bench", "--sizes", "5,9", "--reps", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("case")
    assert lines[1].startswith("sp5")
    assert lines[2].startswith("sp9")


def test_bench_csv_output(capsys):
    assert main(["bench", "--sizes", "5", "--reps", "1", "--seed", "1",
                 "--report", "csv", "--discard-first"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "case,reading_ms,transformation_ms,writing_ms"
    assert lines[1].startswith("sp5,")


def test_bench_json_output(capsys):
    assert main(["bench", "--sizes", "5", "--reps", "2", "--seed", "1",
                 "--report", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sizes"] == [5] and doc["cases"][0]["case"] == "sp5"


def test_bench_reports_case_failures_on_stderr(capsys):
    assert main(["bench", "--sizes", "5,0", "--reps", "1", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    assert "warning: sp0:" in captured.err
    assert "sp5" in captured.out


def test_bench_rejects_malformed_sizes(capsys):
    assert main(["bench", "--sizes", "5,x", "--reps", "1", "--seed", "1"]) == 1
    assert "comma-separated" in capsys.readouterr().err
