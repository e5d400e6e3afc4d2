"""Tests for the command-line interface."""

import builtins
import json

import pytest

from repro.cli import build_parser, main
from repro.datasets.bib import BIB_QUERY, figure3c_document
from repro.xmark.queries import ADAPTED_QUERIES
from repro.xmlio.errors import XmlStarvedError


@pytest.fixture
def workload(tmp_path):
    query = tmp_path / "query.xq"
    query.write_text(BIB_QUERY, encoding="utf-8")
    xml = tmp_path / "input.xml"
    xml.write_text(figure3c_document(), encoding="utf-8")
    return str(query), str(xml)


class TestRun:
    def test_run_outputs_result(self, workload, capsys):
        query, xml = workload
        assert main(["run", query, xml]) == 0
        out = capsys.readouterr().out
        assert out.startswith("<r>")
        assert "<title>" in out

    def test_run_with_stats(self, workload, capsys):
        query, xml = workload
        assert main(["run", query, xml, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "watermark=23" in err

    def test_run_with_dom_engine_same_output(self, workload, capsys):
        query, xml = workload
        main(["run", query, xml])
        gcx_out = capsys.readouterr().out
        main(["run", query, xml, "--engine", "dom"])
        dom_out = capsys.readouterr().out
        assert gcx_out == dom_out

    def test_run_interpreted_oracle_same_output(self, workload, capsys):
        """--tier interpreted selects the interpreting oracles,
        byte-identical to the kernels; so does --tier tables."""
        query, xml = workload
        assert main(["run", query, xml]) == 0
        compiled_out = capsys.readouterr().out
        assert main(["run", query, xml, "--tier", "interpreted"]) == 0
        interpreted_out = capsys.readouterr().out
        assert compiled_out == interpreted_out
        assert main(["run", query, xml, "--tier", "tables"]) == 0
        assert capsys.readouterr().out == compiled_out
        assert compiled_out.startswith("<r>")

    def test_run_interpreted_builds_oracle_engines(self):
        """The tier must reach the engine constructor on the whole
        GCX family (and be ignored by the DOM baseline)."""
        from repro.cli import _make_engine

        for engine_name in ("gcx", "projection", "flux"):
            engine = _make_engine(engine_name, tier="interpreted")
            assert engine.tier == "interpreted"
            engine = _make_engine(engine_name)
            assert engine.tier == "generated"
        assert _make_engine("dom", tier="interpreted") is not None

    def test_unknown_tier_is_rejected(self, workload, capsys):
        query, xml = workload
        with pytest.raises(SystemExit):
            main(["run", query, xml, "--tier", "codegen"])
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_file_reports_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.xq"), str(tmp_path / "n.xml")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_input_read_in_bounded_chunks(self, workload, monkeypatch, capsys):
        """`run` must stream the document, never slurp it."""
        query, xml = workload
        reads: list[int] = []
        real_open = builtins.open

        class SpyHandle:
            def __init__(self, handle):
                self._handle = handle

            def read(self, size=-1):
                reads.append(size)
                return self._handle.read(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._handle.close()

            def __getattr__(self, name):
                return getattr(self._handle, name)

        def spy_open(path, *args, **kwargs):
            handle = real_open(path, *args, **kwargs)
            return SpyHandle(handle) if str(path) == xml else handle

        monkeypatch.setattr(builtins, "open", spy_open)
        assert main(["run", query, xml, "--chunk-size", "512"]) == 0
        assert reads, "the input file was never read through its handle"
        assert all(size == 512 for size in reads)


class TestErrorMapping:
    def test_malformed_input_exits_nonzero_with_one_line(self, tmp_path, capsys):
        query = tmp_path / "query.xq"
        query.write_text(BIB_QUERY, encoding="utf-8")
        bad = tmp_path / "bad.xml"
        bad.write_text("<bib><book></bib>", encoding="utf-8")
        assert main(["run", str(query), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1  # one line, no traceback

    def test_truncated_input_exits_nonzero(self, tmp_path, capsys):
        query = tmp_path / "query.xq"
        query.write_text(BIB_QUERY, encoding="utf-8")
        truncated = tmp_path / "truncated.xml"
        truncated.write_text("<bib><book><title>unfin", encoding="utf-8")
        assert main(["run", str(query), str(truncated)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unexpected end of input" in err

    def test_starved_lexer_maps_to_clean_exit(self, workload, monkeypatch, capsys):
        query, xml = workload
        monkeypatch.setattr(
            "repro.cli._evaluate",
            lambda *args, **kwargs: (_ for _ in ()).throw(
                XmlStarvedError("no complete token buffered")
            ),
        )
        assert main(["run", query, xml]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no complete token buffered" in err


class TestMultiplex:
    @pytest.fixture
    def multi_workload(self, tmp_path):
        from repro.xmark.generator import generate_document

        xml = tmp_path / "doc.xml"
        xml.write_text(generate_document(scale=0.5, seed=3), encoding="utf-8")
        names = tmp_path / "names.xq"
        names.write_text(
            "for $p in /site/people/person return $p/name", encoding="utf-8"
        )
        prices = tmp_path / "prices.xq"
        prices.write_text(
            "for $c in /site/closed_auctions/closed_auction return $c/price",
            encoding="utf-8",
        )
        return str(xml), str(names), str(prices)

    def test_multiplex_matches_independent_runs(self, multi_workload, capsys):
        xml, names, prices = multi_workload
        assert main(["run", names, xml]) == 0
        names_out = capsys.readouterr().out
        assert main(["run", prices, xml]) == 0
        prices_out = capsys.readouterr().out
        assert main(["multiplex", xml, "-q", names, "-q", prices]) == 0
        out = capsys.readouterr().out
        assert f"=== {names}" in out
        assert f"=== {prices}" in out
        head, _, tail = out.partition(f"=== {prices}\n")
        assert head == f"=== {names}\n{names_out}"
        assert tail == prices_out

    def test_multiplex_single_query_has_no_header(self, multi_workload, capsys):
        xml, names, _ = multi_workload
        assert main(["run", names, xml]) == 0
        expected = capsys.readouterr().out
        assert main(["multiplex", xml, "-q", names]) == 0
        assert capsys.readouterr().out == expected

    def test_multiplex_tier_flag(self, multi_workload, capsys):
        xml, names, _ = multi_workload
        assert main(["multiplex", xml, "-q", names]) == 0
        expected = capsys.readouterr().out
        for tier in ("tables", "interpreted"):
            assert main(["multiplex", xml, "-q", names, "--tier", tier]) == 0
            assert capsys.readouterr().out == expected

    def test_multiplex_stats_reports_stream_summary(
        self, multi_workload, capsys
    ):
        xml, names, prices = multi_workload
        assert main(["multiplex", xml, "-q", names, "-q", prices, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "stream:" in err
        assert '"subscribers": 2' in err

    def test_multiplex_bad_query_reports_error(self, multi_workload, capsys):
        xml, names, _ = multi_workload
        import pathlib

        bad = pathlib.Path(xml).with_name("bad.xq")
        bad.write_text("for $x in", encoding="utf-8")
        assert main(["multiplex", xml, "-q", names, "-q", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestExplain:
    def test_explain_prints_roles_and_signoffs(self, workload, capsys):
        query, _ = workload
        assert main(["explain", query]) == 0
        out = capsys.readouterr().out
        assert "r1: /" in out
        assert "/bib/*/price[1]" in out
        assert "signOff" in out
        assert "hash join" not in out

    def test_explain_names_each_hash_join(self, tmp_path, capsys):
        query = tmp_path / "q8.xq"
        query.write_text(ADAPTED_QUERIES["q8"].text, encoding="utf-8")
        assert main(["explain", str(query)]) == 0
        lines = capsys.readouterr().out.splitlines()
        joins = [line for line in lines if line.startswith("hash join:")]
        assert joins == ["hash join: $t/buyer/@person = $p/@id"]


class TestProfile:
    def test_profile_plots_series(self, workload, capsys):
        query, xml = workload
        assert main(["profile", query, xml]) == 0
        out = capsys.readouterr().out
        assert "buffer profile" in out
        assert "peak 23" in out


class TestXmark:
    def test_generates_document(self, capsys):
        assert main(["xmark", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("<site>")
        assert out.endswith("</site>")


class TestServeAndStats:
    @pytest.fixture(scope="class")
    def live_server(self):
        from repro.server.service import ServerThread

        with ServerThread(max_sessions=4) as handle:
            yield handle

    def test_serve_subcommand_is_wired(self):
        args = build_parser().parse_args(["serve", "--port", "0", "--max-sessions", "3"])
        assert args.port == 0
        assert args.max_sessions == 3
        assert args.func.__name__ == "_cmd_serve"

    def test_stats_pretty_output_is_aligned_tables(self, live_server, capsys):
        assert main(["stats", "--port", str(live_server.port)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        # Sections render as a bare header followed by indented,
        # aligned key/value rows — not "a.b = v" dumps or raw JSON.
        assert "sessions" in lines
        assert "plan_cache" in lines
        assert "multiplex" in lines
        assert not any(" = " in line for line in lines)
        section_rows = [line for line in lines if line.startswith("  ")]
        assert any(line.lstrip().startswith("opened") for line in section_rows)
        assert any(line.lstrip().startswith("hit_rate") for line in section_rows)
        # Alignment: within a section, values end at one column.
        sessions_at = lines.index("sessions")
        block = []
        for line in lines[sessions_at + 1 :]:
            if not line.startswith("  "):
                break
            block.append(line)
        assert len(block) >= 4
        assert len({len(line) for line in block}) == 1

    def test_stats_pretty_output_nests_multiplex(self, live_server, capsys):
        assert main(["stats", "--port", str(live_server.port)]) == 0
        out = capsys.readouterr().out
        assert "streams.opened" in out
        assert "peak_fanout" in out

    def test_stats_json_output(self, live_server, capsys):
        assert main(["stats", "--port", str(live_server.port), "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["sessions"]["active"] == 0
        assert "bytes" in snapshot

    def test_stats_against_dead_server_reports_error(self, capsys):
        # A port nothing listens on: connection refused -> one-line error.
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        assert main(["stats", "--port", str(free_port), "--timeout", "2"]) == 1
        assert capsys.readouterr().err.startswith("error:")
