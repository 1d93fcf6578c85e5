"""Tests for the interactive shell."""

import pytest

from repro.shell import Shell


@pytest.fixture
def shell():
    sh = Shell(seed=1)
    sh.feed("CREATE STREAM R (a integer);")
    sh.feed("CREATE STREAM S (b integer, c integer);")
    return sh


class TestMetaCommands:
    def test_help(self, shell):
        assert "CREATE STREAM" in shell.feed("\\help")

    def test_streams_listing(self, shell):
        out = shell.feed("\\streams")
        assert "R (a integer)" in out
        assert "0 tuples buffered" in out

    def test_gen(self, shell):
        out = shell.feed("\\gen R 50")
        assert "generated 50 gaussian tuples" in out
        assert "50 tuples buffered" in shell.feed("\\streams")

    def test_gen_zipf(self, shell):
        assert "zipf" in shell.feed("\\gen R 10 zipf")

    def test_gen_unknown_family(self, shell):
        assert "unknown value family" in shell.feed("\\gen R 10 cauchy")

    def test_clear(self, shell):
        shell.feed("\\gen R 5")
        assert "cleared" in shell.feed("\\clear R")
        assert "0 tuples buffered" in shell.feed("\\streams")

    def test_save_and_load(self, shell, tmp_path):
        shell.feed("\\gen R 7")
        path = tmp_path / "r.trace"
        assert "saved 7" in shell.feed(f"\\save R {path}")
        shell.feed("\\clear R")
        assert "loaded 7" in shell.feed(f"\\load R {path}")

    def test_quit_raises_eof(self, shell):
        with pytest.raises(EOFError):
            shell.feed("\\quit")

    def test_unknown_command(self, shell):
        assert "unknown command" in shell.feed("\\frobnicate")

    def test_explain(self, shell):
        out = shell.feed("\\explain SELECT a, COUNT(*) AS n FROM R GROUP BY a")
        assert "HashAggregate" in out
        assert "Data Triage rewrite" in out

    def test_rewrite(self, shell):
        out = shell.feed("\\rewrite SELECT * FROM R, S WHERE R.a = S.b")
        assert "CREATE VIEW Q_dropped_syn" in out

    def test_profile(self, shell):
        shell.feed("\\gen R 30")
        out = shell.feed("\\profile SELECT a, COUNT(*) AS n FROM R GROUP BY a")
        assert "EXPLAIN ANALYZE" in out
        assert "HashAggregate" in out
        assert "loops=1" in out
        assert "Execution:" in out

    def test_profile_scan_rows_match_buffer(self, shell):
        shell.feed("\\gen R 25")
        out = shell.feed("\\profile SELECT a FROM R")
        assert "rows=25" in out
        assert "25 row(s)" in out

    def test_profile_usage_and_errors(self, shell):
        assert "usage" in shell.feed("\\profile")
        assert "error:" in shell.feed("\\profile SELECT nope FROM R")

    def test_help_mentions_profile(self, shell):
        assert "\\profile" in shell.feed("\\help")


class TestSql:
    def test_multiline_accumulation(self, shell):
        assert shell.feed("SELECT a") is None
        assert shell.wants_more
        out = shell.feed("FROM R;")
        assert "(0 rows)" in out

    def test_select_over_generated_data(self, shell):
        shell.feed("\\gen R 100")
        out = shell.feed("SELECT COUNT(*) AS n FROM R;")
        assert "100" in out

    def test_join_query(self, shell):
        shell.feed("\\gen R 50")
        shell.feed("\\gen S 50")
        out = shell.feed(
            "SELECT a, COUNT(*) AS n FROM R, S WHERE R.a = S.b GROUP BY a;"
        )
        assert "a | n" in out

    def test_order_and_limit_respected(self, shell):
        shell.feed("\\gen R 30")
        out = shell.feed("SELECT a FROM R ORDER BY a DESC LIMIT 3;")
        assert "(3 rows)" in out
        values = [
            int(line) for line in out.splitlines() if line.strip().isdigit()
        ]
        assert values == sorted(values, reverse=True)

    def test_windowed_query(self, shell):
        shell.feed("\\gen R 100")  # 0.01s apart: 1 second spans 100 tuples
        out = shell.feed(
            "SELECT a, COUNT(*) AS n FROM R GROUP BY a WINDOW R ['0.5'];"
        )
        assert "-- window 0" in out
        assert "-- window 1" in out

    def test_create_view_and_query_it(self, shell):
        shell.feed("\\gen R 10")
        shell.feed("CREATE VIEW small AS SELECT a FROM R WHERE a < 50;")
        out = shell.feed("SELECT COUNT(*) AS n FROM small;")
        assert "n" in out

    def test_pattern_query(self, shell):
        from repro.engine.types import StreamTuple

        shell.feed("CREATE STREAM A (k INTEGER);")
        shell.feed("CREATE STREAM B (k INTEGER);")
        shell.feed("CREATE STREAM C (k INTEGER);")
        shell.buffers["a"] = [StreamTuple(0.1, (7,))]
        shell.buffers["b"] = [StreamTuple(0.2, (7,)), StreamTuple(0.3, (7,))]
        shell.buffers["c"] = [StreamTuple(0.4, (7,))]
        out = shell.feed(
            "PATTERN SEQ(A a, B+ b, C c) "
            "WHERE a.k = b.k AND b.k = c.k WITHIN 2;"
        )
        assert "match_start" in out and "b_count" in out
        assert "0.1 | 0.4 | 7 | 2 | 7 | 7" in out

    def test_pattern_query_no_matches(self, shell):
        shell.feed("CREATE STREAM A (k INTEGER);")
        shell.feed("CREATE STREAM C (k INTEGER);")
        out = shell.feed("PATTERN SEQ(A a, C c) WITHIN 1;")
        assert "(0 rows)" in out

    def test_error_reported_not_raised(self, shell):
        out = shell.feed("SELECT nope FROM R;")
        assert out.startswith("error:")

    def test_parse_error_reported(self, shell):
        out = shell.feed("SELEKT * FROM R;")
        assert out.startswith("error:")


class TestPublish:
    """``\\publish`` against a live service (run in a sidecar thread)."""

    def test_publish_rebases_onto_server_clock(self, shell):
        """Regression: a long-running server has closed windows far past a
        replayed buffer's 0-based timestamps; the shell must rebase them
        onto the server's clock (from WELCOME) instead of publishing rows
        that are all discarded as late."""
        import asyncio
        import threading

        from repro.core.strategies import PipelineConfig
        from repro.engine.window import WindowSpec
        from repro.experiments import paper_catalog
        from repro.service import ServiceConfig, TriageClient, TriageServer

        clock = {"t": 50.0}
        started = threading.Event()
        holder = {}

        def run_server():
            async def main():
                config = PipelineConfig(
                    window=WindowSpec(width=1.0),
                    queue_capacity=1000,
                    service_time=0.001,
                    compute_ideal=False,
                )
                service = ServiceConfig(
                    tick_interval=None, clock=lambda: clock["t"]
                )
                server = TriageServer(
                    paper_catalog(),
                    "SELECT a, COUNT(*) AS n FROM R GROUP BY a;",
                    config,
                    service,
                )
                await server.start()
                # Age the server: close window 50 so anything stamped near
                # zero would be late.
                seeder = await TriageClient.connect("127.0.0.1", server.port)
                await seeder.declare("R")
                await seeder.publish("R", [[1]], timestamps=[50.2])
                clock["t"] = 51.5
                await server.tick()
                await seeder.close()
                assert server.plane.last_closed_wid == 50

                stop = asyncio.Event()
                holder["port"] = server.port
                holder["stop"] = stop
                holder["loop"] = asyncio.get_running_loop()
                started.set()
                await stop.wait()
                await server.shutdown()

            asyncio.run(main())

        thread = threading.Thread(target=run_server)
        thread.start()
        try:
            assert started.wait(10)
            shell.feed("\\gen R 50")  # buffer timestamps start near 0
            out = shell.feed(f"\\publish 127.0.0.1:{holder['port']} R")
            assert "published 50/50 tuples from R" in out
            assert "too late" not in out
        finally:
            holder["loop"].call_soon_threadsafe(holder["stop"].set)
            thread.join(10)
