"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestCli:
    def test_fig6_small(self):
        code, text = run_cli(["fig6", "--rows", "150"])
        assert code == 0
        assert "original query" in text
        assert "fast/original ratio" in text

    def test_fig8_small(self):
        code, text = run_cli(["fig8", "--rates", "200,1500", "--runs", "2"])
        assert code == 0
        assert "Figure 8" in text
        assert "legend:" in text  # ascii chart present
        assert "data_triage_mean" in text  # csv present

    def test_fig9_small(self):
        code, text = run_cli(["fig9", "--peaks", "2000", "--runs", "2"])
        assert code == 0
        assert "Figure 9" in text

    def test_explain(self):
        code, text = run_cli(
            ["explain", "SELECT a, COUNT(*) AS n FROM R, S, T "
             "WHERE R.a = S.b AND S.c = T.d GROUP BY a"]
        )
        assert code == 0
        assert "ENGINE PLAN" in text
        assert "Data Triage rewrite" in text

    def test_explain_non_spj(self):
        code, text = run_cli(["explain", "SELECT * FROM R, S, T WHERE R.a = S.b"])
        assert code == 0
        assert "rewrite not applicable" in text

    def test_rewrite(self):
        code, text = run_cli(
            ["rewrite", "SELECT * FROM R, S, T WHERE R.a = S.b AND S.c = T.d"]
        )
        assert code == 0
        assert "CREATE VIEW Q_dropped_syn" in text

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_drop_policy_flag_parses(self):
        args = build_parser().parse_args(["serve", "--drop-policy", "head"])
        assert args.drop_policy == "head"
        args = build_parser().parse_args(
            ["serve", "--drop-policy", "pattern-utility", "--pattern",
             "PATTERN SEQ(R a, S b) WITHIN 2"]
        )
        assert args.drop_policy == "pattern-utility"
        assert args.pattern.startswith("PATTERN")

    def test_drop_policy_flag_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--drop-policy", "nope"])

    def test_fig8_svg_output(self, tmp_path):
        svg_path = tmp_path / "fig8.svg"
        code, text = run_cli(
            ["fig8", "--rates", "200,1500", "--runs", "1", "--svg", str(svg_path)]
        )
        assert code == 0
        assert "SVG chart written" in text
        assert svg_path.read_text().startswith("<svg")

    def test_trace_writes_valid_chrome_trace(self, tmp_path):
        import json

        from repro.obs.trace import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        prom_path = tmp_path / "metrics.prom"
        code, text = run_cli(
            ["trace", "--quick", "--peak", "4500", "--out", str(trace_path),
             "--metrics-out", str(prom_path)]
        )
        assert code == 0
        assert "traced Figure 9 run" in text
        assert "mean RMS error" in text
        events = validate_chrome_trace(json.loads(trace_path.read_text()))
        names = {e["name"] for e in events}
        assert {"drain", "exact", "shadow", "merge", "window_close", "emit"} <= names
        assert {"ingest", "enqueue", "shed", "poll"} <= names  # 4500 sheds
        prom = prom_path.read_text()
        assert "pipeline_phase_seconds_bucket" in prom
        assert "triage_drops_total" in prom

    def test_trace_builds_its_chrome_document_once(self, tmp_path, monkeypatch):
        import json

        from repro.obs.trace import Tracer

        built = []
        to_chrome = Tracer.to_chrome

        def spy(tracer):
            built.append(to_chrome(tracer))
            return built[-1]

        monkeypatch.setattr(Tracer, "to_chrome", spy)
        trace_path = tmp_path / "trace.json"
        code, _ = run_cli(
            ["trace", "--quick", "--peak", "4500", "--out", str(trace_path)]
        )
        assert code == 0
        # The validated document is the one written, in Tracer.write's bytes.
        assert len(built) == 1
        assert trace_path.read_text() == json.dumps(built[0], indent=1) + "\n"

    def test_trace_jsonl_format(self, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        code, text = run_cli(
            ["trace", "--quick", "--format", "jsonl", "--out", str(path),
             "--no-tuple-events"]
        )
        assert code == 0
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines, "jsonl trace should have events"
        assert all("ph" in e for e in lines)
        # Lifecycle instants silenced: spans/instants only.
        assert not any(e.get("cat") == "tuple" for e in lines)

    def test_trace_profile_out_and_prof_table(self, tmp_path):
        from repro.obs.prof import validate_collapsed

        collapsed = tmp_path / "fig9.collapsed"
        # The full run, not --quick: the sampler's first wake-up comes a
        # period plus a GIL hand-off (up to ~9 ms) after the run starts, and
        # a warm --quick run is over in ~8 ms — `repro prof --svg` rightly
        # refuses the empty profile that leaves.
        code, text = run_cli(
            ["trace", "--out", str(tmp_path / "t.json"),
             "--profile-out", str(collapsed), "--profile-hz", "250"]
        )
        assert code == 0
        assert "profile:" in text
        header = validate_collapsed(collapsed.read_text())
        assert header["schema"] == "repro-prof/v1"

        svg = tmp_path / "flame.svg"
        code, text = run_cli(
            ["prof", str(collapsed), "--top", "3", "--svg", str(svg)]
        )
        assert code == 0
        assert "hot functions" in text
        assert "<svg" in svg.read_text()

    def test_prof_diff_exit_codes(self, tmp_path):
        base = tmp_path / "base.collapsed"
        slow = tmp_path / "slow.collapsed"
        base.write_text(
            "# repro-prof/v1 hz=97 samples=100 truncated=0 label=x\n"
            "m:f:1 80\nm:g:2 20\n"
        )
        slow.write_text(
            "# repro-prof/v1 hz=97 samples=100 truncated=0 label=x\n"
            "m:f:1 50\nm:g:2 50\n"
        )
        code, text = run_cli(["prof", "--diff", str(base), str(base)])
        assert code == 0
        assert "no per-function self-time regressions" in text
        code, text = run_cli(["prof", "--diff", str(base), str(slow)])
        assert code == 1
        assert "REGRESSION" in text and "m:g" in text

    def test_prof_bad_file_exits_2(self, tmp_path):
        missing = tmp_path / "nope.collapsed"
        code, text = run_cli(["prof", str(missing)])
        assert code == 2
        assert "prof error" in text
        bad = tmp_path / "bad.collapsed"
        bad.write_text("not a profile\n")
        code, text = run_cli(["prof", str(bad)])
        assert code == 2
        assert "invalid profile" in text

    def test_serve_flags_attach_their_parts_to_the_servers_bundle(self):
        import asyncio

        from repro.cli import build_server
        from repro.service import TriageClient

        server = build_server(
            build_parser().parse_args(
                ["serve", "--port", "0", "--audit", "--audit-ring", "7",
                 "--profile-hz", "50"]
            )
        )
        assert server.obs.ledger.capacity == 7
        assert server.obs.sampler.hz == 50.0

        async def stats():
            await server.start()
            try:
                client = await TriageClient.connect("127.0.0.1", server.port)
                try:
                    return await client.stats()
                finally:
                    await client.close()
            finally:
                await server.shutdown()

        reply = asyncio.run(stats())
        assert reply["audit"]["summary"]["schema"] == "repro-audit/v1"
        assert reply["prof"]["summary"]["hz"] == 50.0
        bare = build_server(build_parser().parse_args(["serve", "--port", "0"]))
        assert bare.obs is None
