"""Chunk-boundary robustness of the compile-once / stream-many layer.

The acceptance bar for the session architecture: a StreamSession must
produce **byte-identical output** (and identical buffer behaviour —
watermark and per-token series) to a one-shot ``GCXEngine.run`` for any
chunking of the input, down to one-character chunks and every possible
split offset; and compiling a query once then streaming N documents
must run static analysis exactly once (observable through the plan
cache counters).
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.engine as engine_module
from repro.baselines import FluxLikeEngine, ProjectionOnlyEngine
from repro.core.engine import GCXEngine
from repro.core.plan import PlanCache
from repro.core.session import SessionStateError
from repro.datasets.bib import BIB_QUERY, figure3c_document
from repro.xmark.generator import XMARK_DTD
from repro.xmark.queries import ADAPTED_QUERIES
from repro.xmlio.dtd import parse_dtd
from repro.xmlio.errors import XmlSyntaxError
from repro.xmlio.lexer import tokenize

# A compact document exercising every construct the lexer must carry
# across chunk boundaries: DOCTYPE with internal subset, attributes
# with entities, comments, CDATA, character references, self-closing
# tags, and multi-byte text runs.
TRICKY_XML = (
    '<!DOCTYPE a [<!ELEMENT a (b)>]>'
    '<a x="1&amp;2"><!-- note --><b><![CDATA[<raw> &amp;]]></b>'
    "t&#65;il<c k='v'/></a>"
)
TRICKY_QUERY = "<out>{ for $b in /a/b return $b }</out>"


def chunked(text: str, size: int) -> list[str]:
    return [text[start : start + size] for start in range(0, len(text), size)]


def run_session(engine: GCXEngine, plan, chunks) -> "engine_module.RunResult":
    session = engine.session(plan)
    for chunk in chunks:
        session.feed(chunk)
    return session.finish()


class TestEveryOffsetSplit:
    """Splitting the document at *every* byte offset changes nothing."""

    @pytest.mark.parametrize(
        "query,xml",
        [
            (TRICKY_QUERY, TRICKY_XML),
            ("for $b in /a/b return $b", "<a><b>1</b><x>junk</x><b>2</b></a>"),
        ],
    )
    def test_two_way_splits_identical(self, query, xml):
        engine = GCXEngine()
        plan = engine.compile(query)
        baseline = engine.run(plan, xml)
        for offset in range(len(xml) + 1):
            result = run_session(engine, plan, [xml[:offset], xml[offset:]])
            assert result.output == baseline.output, offset
            assert result.stats.watermark == baseline.stats.watermark, offset
            assert result.stats.series == baseline.stats.series, offset
            assert result.stats.tokens == baseline.stats.tokens, offset

    def test_bib_document_every_offset(self):
        engine = GCXEngine(record_series=False)
        plan = engine.compile(BIB_QUERY)
        xml = figure3c_document()
        baseline = engine.run(plan, xml)
        for offset in range(0, len(xml) + 1, 7):  # every 7th byte: ~90 splits
            result = run_session(engine, plan, [xml[:offset], xml[offset:]])
            assert result.output == baseline.output, offset
            assert result.stats.watermark == baseline.stats.watermark, offset

    def test_one_character_chunks(self):
        engine = GCXEngine()
        plan = engine.compile(TRICKY_QUERY)
        baseline = engine.run(plan, TRICKY_XML)
        result = run_session(engine, plan, chunked(TRICKY_XML, 1))
        assert result.output == baseline.output
        assert result.stats.series == baseline.stats.series


class TestAdaptedQueriesChunked:
    """All tier-1 XMark queries: session ≡ pull at several chunk sizes."""

    @pytest.mark.parametrize("key", sorted(ADAPTED_QUERIES))
    @pytest.mark.parametrize("size", [17, 1024])
    def test_byte_identical(self, key, size, xmark_small):
        engine = GCXEngine(record_series=False)
        plan = engine.compile(ADAPTED_QUERIES[key].text)
        baseline = engine.run(plan, xmark_small)
        result = run_session(engine, plan, chunked(xmark_small, size))
        assert result.output == baseline.output
        assert result.stats.watermark == baseline.stats.watermark
        assert result.stats.tokens == baseline.stats.tokens

    @pytest.mark.parametrize(
        "make_engine",
        [
            lambda: ProjectionOnlyEngine(record_series=False),
            lambda: FluxLikeEngine(
                dtd=parse_dtd(XMARK_DTD), record_series=False
            ),
        ],
        ids=["projection-only", "flux-like"],
    )
    def test_baseline_engines_stream_too(self, make_engine, xmark_small):
        engine = make_engine()
        plan = engine.compile(ADAPTED_QUERIES["q1"].text)
        baseline = engine.run(plan, xmark_small)
        result = run_session(engine, plan, chunked(xmark_small, 512))
        assert result.output == baseline.output
        assert result.stats.watermark == baseline.stats.watermark


# ---------------------------------------------------------------------------
# hypothesis: random documents, random partitions
# ---------------------------------------------------------------------------

_TAGS = ("a", "b", "c", "d")


@st.composite
def xml_trees(draw, max_depth=4):
    """A random XML document string over a small tag alphabet."""

    def node(depth):
        tag = draw(st.sampled_from(_TAGS))
        attrs = ""
        if draw(st.booleans()):
            attrs = f' k="v{draw(st.integers(0, 3))}"'
        if depth >= max_depth or draw(st.integers(0, 2)) == 0:
            if draw(st.booleans()):
                text = draw(st.sampled_from(("x", "y&amp;z", "1")))
                return f"<{tag}{attrs}>{text}</{tag}>"
            return f"<{tag}{attrs}/>"
        children = "".join(
            node(depth + 1) for _ in range(draw(st.integers(0, 3)))
        )
        return f"<{tag}{attrs}>{children}</{tag}>"

    return f"<r>{node(1)}{node(1)}</r>"


@st.composite
def partitioned(draw):
    """A document plus a random partition of it into chunks."""
    xml = draw(xml_trees())
    cuts = sorted(draw(st.lists(st.integers(0, len(xml)), max_size=8)))
    bounds = [0, *cuts, len(xml)]
    return xml, [xml[a:b] for a, b in zip(bounds, bounds[1:])]


@given(partitioned())
@settings(max_examples=60, deadline=None)
def test_chunked_token_stream_equals_whole(case):
    xml, chunks = case
    assert list(tokenize(iter(chunks))) == list(tokenize(xml))


@given(partitioned())
@settings(max_examples=25, deadline=None)
def test_session_equals_pull_on_random_partitions(case):
    xml, chunks = case
    engine = GCXEngine()
    plan = engine.compile("<out>{ for $x in /r/b return $x }</out>")
    baseline = engine.run(plan, xml)
    result = run_session(engine, plan, chunks)
    assert result.output == baseline.output
    assert result.stats.watermark == baseline.stats.watermark
    assert result.stats.series == baseline.stats.series


# ---------------------------------------------------------------------------
# the compile-once guarantee
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_static_analysis_runs_exactly_once(self, monkeypatch):
        calls = []
        real = engine_module.analyze_query

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "analyze_query", counting)
        engine = GCXEngine()
        documents = [f"<a><b>{i}</b></a>" for i in range(5)]
        outputs = [
            engine.query("for $b in /a/b return $b", doc).output
            for doc in documents
        ]
        assert outputs == [f"<b>{i}</b>" for i in range(5)]
        assert len(calls) == 1
        stats = engine.plan_cache.stats
        assert stats.misses == 1
        assert stats.hits == len(documents) - 1

    def test_sessions_share_one_plan(self):
        engine = GCXEngine()
        plan = engine.compile(TRICKY_QUERY)
        sessions = [engine.session(plan) for _ in range(4)]
        results = [
            session.feed(TRICKY_XML).finish() for session in sessions
        ]
        assert len({id(result.compiled) for result in results}) == 1
        assert engine.plan_cache.stats.misses == 1

    def test_whitespace_variants_share_plan(self):
        engine = GCXEngine()
        first = engine.compile("for $b in /a/b return $b")
        second = engine.compile("for  $b  in\n  /a/b\n  return  $b")
        assert second is first
        stats = engine.plan_cache.stats
        assert stats.canonical_reuses == 1
        assert stats.misses == 1  # static analysis still ran only once

    def test_string_literal_whitespace_not_conflated(self):
        # Whitespace inside string literals is significant: these two
        # queries must compile to *different* plans, not share a cache
        # entry through a whitespace-mangled key.
        engine = GCXEngine()
        doc = "<a><b>1</b></a>"
        spaced = engine.query('<out>{ "x  y" }</out>', doc).output
        single = engine.query('<out>{ "x y" }</out>', doc).output
        assert spaced == "<out>x  y</out>"
        assert single == "<out>x y</out>"
        assert engine.plan_cache.stats.misses == 2

    def test_first_witness_engines_do_not_share_plans(self):
        cache = PlanCache()
        with_witness = GCXEngine(plan_cache=cache)
        without = GCXEngine(first_witness=False, plan_cache=cache)
        query = 'for $b in /a/b return if (exists $b/p) then "y" else ()'
        plan_a = with_witness.compile(query)
        plan_b = without.compile(query)
        assert plan_a is not plan_b
        assert cache.stats.misses == 2

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        engine = GCXEngine(plan_cache=cache)
        queries = [f"for $b in /a/b{i} return $b" for i in range(3)]
        for query in queries:
            engine.compile(query)
        assert len(cache) == 2
        engine.compile(queries[0])  # evicted: recompiles
        assert cache.stats.misses == 4

    def test_clear_resets_counters(self):
        engine = GCXEngine()
        engine.compile(TRICKY_QUERY)
        engine.compile(TRICKY_QUERY)
        engine.plan_cache.clear()
        stats = engine.plan_cache.stats
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)


# ---------------------------------------------------------------------------
# session lifecycle
# ---------------------------------------------------------------------------


class TestSessionLifecycle:
    def test_finish_is_idempotent(self):
        engine = GCXEngine()
        session = engine.session(TRICKY_QUERY)
        session.feed(TRICKY_XML)
        first = session.finish()
        assert session.finish() is first

    def test_feed_after_finish_rejected(self):
        engine = GCXEngine()
        session = engine.session(TRICKY_QUERY)
        session.feed(TRICKY_XML)
        session.finish()
        with pytest.raises(SessionStateError):
            session.feed("<more/>")

    def test_malformed_input_surfaces_on_feed_or_finish(self):
        engine = GCXEngine()
        session = engine.session("for $b in /a/b return $b")
        with pytest.raises(XmlSyntaxError, match="mismatched end tag"):
            session.feed("<a><b></c>")
            session.finish()

    def test_error_is_sticky(self):
        engine = GCXEngine()
        session = engine.session("for $b in /a/b return $b")
        with pytest.raises(XmlSyntaxError):
            session.feed("<a><b></c>")
            session.finish()
        with pytest.raises(XmlSyntaxError):
            session.finish()

    def test_truncated_input_fails_at_finish(self):
        engine = GCXEngine()
        session = engine.session("for $b in /a/b return $b")
        session.feed("<a><b>")
        with pytest.raises(XmlSyntaxError, match="unclosed element"):
            session.finish()

    def test_context_manager_finishes(self):
        engine = GCXEngine()
        with engine.session(TRICKY_QUERY) as session:
            session.feed(TRICKY_XML)
        assert session.finished
        assert session.finish().output.startswith("<out>")

    def test_abort_releases_session(self):
        engine = GCXEngine()
        session = engine.session(TRICKY_QUERY)
        session.feed("<a>")
        session.abort()
        assert not session.finished

    def test_incremental_output_stream(self):
        engine = GCXEngine()
        sink = io.StringIO()
        session = engine.session(TRICKY_QUERY, output_stream=sink)
        for chunk in chunked(TRICKY_XML, 5):
            session.feed(chunk)
        result = session.finish()
        assert result.output == ""
        assert sink.getvalue() == engine.query(TRICKY_QUERY, TRICKY_XML).output

    def test_bytes_fed_counter(self):
        engine = GCXEngine()
        session = engine.session(TRICKY_QUERY)
        for chunk in chunked(TRICKY_XML, 10):
            session.feed(chunk)
        assert session.bytes_fed == len(TRICKY_XML)
        session.finish()

    def test_backpressure_bound_still_correct(self):
        engine = GCXEngine()
        plan = engine.compile(TRICKY_QUERY)
        session = engine.session(plan, max_pending_chunks=1)
        for chunk in chunked(TRICKY_XML, 3):
            session.feed(chunk)
        assert session.finish().output == engine.run(plan, TRICKY_XML).output


class TestChunkedPullSources:
    """engine.run itself accepts file-likes and chunk iterables."""

    def test_run_accepts_chunk_iterable(self):
        engine = GCXEngine()
        plan = engine.compile(TRICKY_QUERY)
        baseline = engine.run(plan, TRICKY_XML)
        result = engine.run(plan, iter(chunked(TRICKY_XML, 4)))
        assert result.output == baseline.output
        assert result.stats.series == baseline.stats.series

    def test_run_reads_file_like_in_chunks(self):
        engine = GCXEngine()
        plan = engine.compile(TRICKY_QUERY)
        baseline = engine.run(plan, TRICKY_XML)

        reads = []

        class Tracking(io.StringIO):
            def read(self, size=-1):
                reads.append(size)
                return super().read(size)

        result = engine.run(plan, Tracking(TRICKY_XML), chunk_size=16)
        assert result.output == baseline.output
        assert all(size == 16 for size in reads)
        assert len(reads) > 1


# ---------------------------------------------------------------------------
# incremental result emission (DESIGN.md §10)
# ---------------------------------------------------------------------------


class TestIncrementalEmission:
    """Results must stream out while input is still being fed."""

    def _doc(self, items: int = 40) -> str:
        body = "".join(f"<b>item{i}</b>" for i in range(items))
        return f"<a>{body}</a>"

    def test_first_output_before_final_chunk(self):
        """A slow-feed session yields output before its input ends."""
        engine = GCXEngine()
        doc = self._doc()
        chunks = chunked(doc, 64)
        session = engine.session("for $b in /a/b return $b")
        early = ""
        fed_when_first_output = None
        for index, chunk in enumerate(chunks):
            session.feed(chunk)
            if not early:
                # next_output waits for evaluation to catch up with
                # the fed input (bounded, so this cannot hang long)
                got = session.next_output(timeout=5.0)
                if got:
                    early = got
                    fed_when_first_output = index
        assert early, "no output before the final chunk was fed"
        assert fed_when_first_output < len(chunks) - 1
        result = session.finish()
        expected = engine.query("for $b in /a/b return $b", doc).output
        assert early + result.output == expected

    def test_drain_output_is_cumulative_and_exact(self):
        engine = GCXEngine()
        doc = self._doc()
        session = engine.session("for $b in /a/b return $b")
        drained = []
        for chunk in chunked(doc, 48):
            session.feed(chunk)
            drained.append(session.drain_output())
        result = session.finish()
        expected = engine.query("for $b in /a/b return $b", doc).output
        assert "".join(drained) + result.output == expected
        assert any(drained), "nothing streamed before finish()"

    def test_on_output_callback_delivery(self):
        engine = GCXEngine()
        doc = self._doc()
        parts: list[str] = []
        session = engine.session(
            "for $b in /a/b return $b", on_output=parts.append
        )
        for chunk in chunked(doc, 64):
            session.feed(chunk)
        result = session.finish()
        # callback consumed everything; finish() returns the rest: none
        assert result.output == ""
        expected = engine.query("for $b in /a/b return $b", doc).output
        assert "".join(parts) == expected

    def test_bounded_output_backpressure_still_correct(self):
        """A tiny output bound pauses evaluation until drained, without
        changing the produced bytes.  A bounded channel needs a
        concurrent consumer (the server's RESULT-pump pattern): the
        worker pauses on the bound, which backs the input channel up,
        which would block ``feed()`` forever without the pump."""
        import threading

        engine = GCXEngine()
        doc = self._doc()
        session = engine.session(
            "for $b in /a/b return $b", max_pending_output=16
        )
        collected: list[str] = []

        def pump():
            while True:
                got = session.next_output(max_chars=16)
                if got is None:
                    return
                collected.append(got)

        pumper = threading.Thread(target=pump)
        pumper.start()
        for chunk in chunked(doc, 32):
            session.feed(chunk)
        result = session.finish()
        pumper.join(timeout=10)
        assert not pumper.is_alive()
        expected = engine.query("for $b in /a/b return $b", doc).output
        assert "".join(collected) + result.output == expected
        assert len(collected) > 1  # genuinely incremental, bounded parts

    def test_next_output_signals_end_with_none(self):
        engine = GCXEngine()
        session = engine.session(TRICKY_QUERY)
        session.feed(TRICKY_XML)
        result = session.finish()
        assert result.output  # undrained output still lands in finish()
        assert session.next_output(timeout=1.0) is None

    def test_time_to_first_output_recorded(self):
        engine = GCXEngine()
        doc = self._doc()
        session = engine.session("for $b in /a/b return $b")
        assert session.time_to_first_output is None or (
            session.time_to_first_output >= 0.0
        )
        for chunk in chunked(doc, 64):
            session.feed(chunk)
        session.next_output(timeout=5.0)
        session.finish()
        assert session.time_to_first_output is not None
        assert session.time_to_first_output >= 0.0

    def test_vm_and_interpreter_stream_identically(self):
        doc = self._doc()
        outputs = {}
        for tier in ("generated", "tables", "interpreted"):
            engine = GCXEngine(tier=tier)
            session = engine.session("for $b in /a/b return $b")
            parts = []
            for chunk in chunked(doc, 48):
                session.feed(chunk)
                parts.append(session.drain_output())
            parts.append(session.finish().output)
            outputs[tier] = "".join(parts)
        assert len(set(outputs.values())) == 1
