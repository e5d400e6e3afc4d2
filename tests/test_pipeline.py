"""The pipeline factory (``repro.core.pipeline``) and the str edge.

One table pins which projector and evaluator classes every kernel tier
builds for every kind of source the runtime sees — bytes, a whole str,
str chunks, the multiplexer's event replay and a checkpointable
session — so tier selection cannot drift apart between ``run``, the
session and the multiplexer again.  A second group pins the
character offsets ``GCXEngine.run`` reports for syntax errors in
non-ASCII ``str`` input, which is encoded once at the edge and scanned
by the bytes lexer.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.core.engine as engine_module
import repro.core.session as session_module
import repro.multiplex.session as multiplex_module
from repro.core.buffer import Buffer
from repro.core.codegen import CodegenEvaluator, GeneratedStreamProjector
from repro.core.engine import GCXEngine
from repro.core.evaluator import PullEvaluator
from repro.core.pipeline import TIERS, build_pipeline
from repro.core.program import CompiledEvaluator
from repro.core.projector import CompiledStreamProjector, StreamProjector
from repro.core.session import SessionStateError, StreamSession
from repro.multiplex.session import SharedStreamSession
from repro.xmlio.errors import XmlSyntaxError
from repro.xmlio.lexer import make_lexer
from repro.xmlio.writer import XmlWriter

QUERY = "<out>{ for $b in /a/b return $b }</out>"
DOC = "<a><b>é</b><c><b>中</b></c><b>x</b></a>"
EXPECTED = "<out><b>é</b><b>x</b></out>"


@pytest.fixture()
def built(monkeypatch):
    """Record the classes of every pipeline the runtime builds."""
    record = []

    def recording(*args, **kwargs):
        projector, evaluator = build_pipeline(*args, **kwargs)
        record.append((type(projector), type(evaluator)))
        return projector, evaluator

    for module in (engine_module, session_module, multiplex_module):
        monkeypatch.setattr(module, "build_pipeline", recording)
    return record


def _run_bytes(engine, plan):
    return engine.run(plan, DOC.encode("utf-8")).output


def _run_str(engine, plan):
    return engine.run(plan, DOC).output


def _run_str_chunks(engine, plan):
    return engine.run(plan, iter([DOC[:5], DOC[5:13], DOC[13:]])).output


def _run_multiplex(engine, plan):
    (result,) = engine.multiplex([plan], DOC.encode("utf-8"))
    return result.output


def _run_checkpointable(engine, plan):
    session = engine.session(plan, checkpointable=True)
    session.feed(DOC.encode("utf-8"))
    return session.finish().output


GEN = (GeneratedStreamProjector, CodegenEvaluator)
TABLES = (CompiledStreamProjector, CompiledEvaluator)
INTERP = (StreamProjector, PullEvaluator)

#: source → the (projector, evaluator) classes per tier, in TIERS
#: order; ``None`` means the combination is refused.
SELECTION = {
    _run_bytes: (GEN, TABLES, INTERP),
    # str input is encoded at the edge: the bytes lexer's batch surface
    # is there, so the generated tier keeps Kernel C
    _run_str: (GEN, TABLES, INTERP),
    _run_str_chunks: (GEN, TABLES, INTERP),
    # the event replay has neither a batch nor a token surface
    _run_multiplex: (
        (CompiledStreamProjector, CodegenEvaluator),
        TABLES,
        (CompiledStreamProjector, PullEvaluator),
    ),
    # checkpointable sessions pin the table tier
    _run_checkpointable: (TABLES, TABLES, None),
}


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("source", SELECTION, ids=lambda fn: fn.__name__[5:])
def test_tier_selection(built, source, tier):
    engine = GCXEngine(tier=tier)
    plan = engine.compile(QUERY)
    expected = SELECTION[source][TIERS.index(tier)]
    if expected is None:
        with pytest.raises(SessionStateError):
            source(engine, plan)
        return
    assert source(engine, plan) == EXPECTED
    assert built == [expected]


def _build(plan, lexer, tier):
    projector, evaluator = build_pipeline(
        plan, lexer, Buffer(), XmlWriter(), tier=tier, gc_enabled=True
    )
    return type(projector), type(evaluator)


class TestFallbacks:
    @pytest.fixture()
    def plan(self):
        return GCXEngine().compile(QUERY)

    def test_str_lexer_keeps_generated_tier_on_the_table_projector(self, plan):
        # the str lexer (the differential oracle) has no batch surface
        assert _build(plan, make_lexer(DOC), "generated") == (
            CompiledStreamProjector,
            CodegenEvaluator,
        )

    def test_plan_without_kernels_runs_tables(self, plan):
        stripped = dataclasses.replace(plan, kernels=None)
        assert _build(stripped, make_lexer(b"<a/>"), "generated") == TABLES

    def test_plan_without_dfa_gets_the_nfa_projector(self, plan):
        stripped = dataclasses.replace(plan, dfa=None)
        for tier, evaluator in zip(
            TIERS, (CodegenEvaluator, CompiledEvaluator, PullEvaluator)
        ):
            assert _build(stripped, make_lexer(b"<a/>"), tier) == (
                StreamProjector,
                evaluator,
            )

    def test_plan_without_program_gets_the_pull_evaluator(self, plan):
        stripped = dataclasses.replace(plan, program=None)
        for tier, projector in zip(TIERS, (GEN[0], TABLES[0], INTERP[0])):
            assert _build(stripped, make_lexer(b"<a/>"), tier) == (
                projector,
                PullEvaluator,
            )


class TestUnknownTier:
    def test_factory_rejects(self):
        plan = GCXEngine().compile(QUERY)
        with pytest.raises(ValueError, match="codegen"):
            _build(plan, make_lexer(b"<a/>"), "codegen")

    def test_engine_rejects(self):
        with pytest.raises(ValueError, match="unknown kernel tier"):
            GCXEngine(tier="fused")

    def test_sessions_reject(self):
        plan = GCXEngine().compile(QUERY)
        with pytest.raises(ValueError):
            StreamSession(plan, tier="compiled")
        with pytest.raises(ValueError):
            SharedStreamSession(tier="compiled")


# ---------------------------------------------------------------------------
# syntax-error offsets of str input (encoded at the edge)
# ---------------------------------------------------------------------------

#: (document, message, character offset).  The offsets are what the str
#: lexer reported for these documents before str input moved onto the
#: bytes lexer; each document puts multi-byte characters ahead of the
#: error, where byte and character offsets differ.
NON_ASCII_ERRORS = [
    ("<a><b>中文</b></c>", "mismatched end tag: expected </a>, got </c>", 12),
    ("<a>éé&bad;</a>", "unknown entity reference &bad;", 5),
    ("<a>ü<b>x</b>&unterminated</a>", "unterminated entity reference", 12),
    (
        "<a><réé x='1'>ü</réé>",
        "unexpected end of input; unclosed element <a>",
        21,
    ),
    ("<a>ß</a>trailing", "character data outside the root element", 8),
    ("<a>中<b>文</b></a><a/>", "multiple root elements", 16),
    ("<a>é<!-- unterminated", "unterminated comment", 4),
]


def _error_of(source):
    engine = GCXEngine()
    with pytest.raises(XmlSyntaxError) as info:
        engine.run(engine.compile(QUERY), source)
    return info.value


@pytest.mark.parametrize("doc,message,offset", NON_ASCII_ERRORS)
def test_str_error_reports_character_offset(doc, message, offset):
    error = _error_of(doc)
    assert (error.message, error.offset) == (message, offset)
    assert str(error) == f"{message} (at offset {offset})"
    # the str lexer itself still agrees
    plan = GCXEngine().compile(QUERY)
    projector, evaluator = build_pipeline(
        plan, make_lexer(doc), Buffer(), XmlWriter(),
        tier="tables", gc_enabled=True,
    )
    with pytest.raises(XmlSyntaxError) as info:
        evaluator.run()
        projector.run_to_end()
    assert (info.value.message, info.value.offset) == (message, offset)


@pytest.mark.parametrize("doc,message,offset", NON_ASCII_ERRORS)
@pytest.mark.parametrize("width", [1, 2, 5])
def test_str_chunks_error_reports_character_offset(doc, message, offset, width):
    chunks = iter([doc[i : i + width] for i in range(0, len(doc), width)])
    error = _error_of(chunks)
    assert (error.message, error.offset) == (message, offset)


@pytest.mark.parametrize("doc,message,offset", NON_ASCII_ERRORS)
def test_bytes_error_keeps_byte_offset(doc, message, offset):
    data = doc.encode("utf-8")
    error = _error_of(data)
    byte_offset = len(doc[:offset].encode("utf-8"))
    assert (error.message, error.offset) == (message, byte_offset)
    assert byte_offset > offset


def test_str_attribute_entity_error_offset():
    """Attribute-value entity errors are positioned from the start tag
    by both lexers; str input still reports the str lexer's offset."""
    error = _error_of("<a><b x='中文&bad;'>t</b></a>")
    assert (error.message, error.offset) == ("unknown entity reference &bad;", 5)
