"""Durable session snapshots (DESIGN.md §16): the versioned codec and
the StreamSession freeze/snapshot/restore lifecycle.

The contract under test: a checkpointable session can be serialized at
any quiescent point into a self-contained, versioned blob; restoring
that blob — in this process or a fresh one — yields a session that
continues **byte-identically** (output, watermark, per-token series).
Stale or foreign blobs are *refused*, never misread: a bumped format
version, corrupted magic, truncated payload, or mismatched plan each
raise a distinct, typed error before any engine state is touched.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import tempfile

import pytest

from repro.core.engine import GCXEngine
from repro.core.program import (
    ITER_JOIN,
    OP_FOR_INIT,
    CompiledEvaluator,
    OperatorProgram,
)
from repro.core.session import SessionStateError, StreamSession
from repro.core.snapshot import (
    FORMAT_VERSION,
    MAGIC,
    BlobReader,
    BlobWriter,
    SnapshotFormatError,
    SnapshotPlanMismatch,
    peek_plan_text,
    read_header,
)
from repro.xmark.queries import ADAPTED_QUERIES

QUERY = ADAPTED_QUERIES["q1"].text
OTHER_QUERY = ADAPTED_QUERIES["q8"].text


@pytest.fixture(scope="module")
def doc(xmark_small):
    return xmark_small


@pytest.fixture(scope="module")
def gcx():
    # module-scoped engine so the plan cache is shared across tests
    # (the conftest ``gcx`` is function-scoped)
    return GCXEngine()


@pytest.fixture(scope="module")
def reference(gcx, doc):
    return gcx.run(gcx.compile(QUERY), doc)


def _feed_range(session, data: bytes, start: int, stop: int, step: int = 4096):
    for i in range(start, stop, step):
        session.feed(data[i : min(i + step, stop)])


# ---------------------------------------------------------------------------
# happy path: snapshot mid-stream, continue / restore, byte-identical
# ---------------------------------------------------------------------------


class TestSnapshotLifecycle:
    def test_snapshot_then_continue_is_byte_identical(self, gcx, doc, reference):
        data = doc.encode()
        session = gcx.session(QUERY, checkpointable=True)
        half = len(data) // 2
        _feed_range(session, data, 0, half)
        blob = session.snapshot()  # freezes, encodes, thaws
        assert isinstance(blob, bytes) and blob.startswith(MAGIC)
        _feed_range(session, data, half, len(data))
        result = session.finish()
        assert result.output == reference.output
        assert result.stats.watermark == reference.stats.watermark
        assert result.stats.series == reference.stats.series

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.5, 0.9])
    def test_restore_in_fresh_session(self, gcx, doc, reference, fraction):
        data = doc.encode()
        split = int(len(data) * fraction)
        session = gcx.session(QUERY, checkpointable=True)
        _feed_range(session, data, 0, split)
        blob = session.snapshot()
        session.abort()  # the original is dead; only the blob survives

        restored = gcx.restore_session(blob)
        assert restored.bytes_fed == split
        _feed_range(restored, data, split, len(data))
        result = restored.finish()
        assert result.output == reference.output
        assert result.stats.watermark == reference.stats.watermark
        assert result.stats.series == reference.stats.series

    def test_repeated_checkpoints_along_one_stream(self, gcx, doc, reference):
        data = doc.encode()
        session = gcx.session(QUERY, checkpointable=True)
        step = max(1, len(data) // 5)
        blobs = []
        for i in range(0, len(data), step):
            session.feed(data[i : i + step])
            blobs.append(session.snapshot())
        assert session.finish().output == reference.output
        # every blob is independently restorable and self-describing
        for blob in blobs:
            assert peek_plan_text(blob) == gcx.compile(QUERY).canonical_text()

    def test_restore_from_intermediate_checkpoint(self, gcx, doc, reference):
        # checkpoint at every chunk boundary, then resume from one in
        # the middle — later checkpoints do not invalidate earlier ones
        data = doc.encode()
        session = gcx.session(QUERY, checkpointable=True)
        step = max(1, len(data) // 4)
        blobs = []
        fed = []
        for i in range(0, len(data), step):
            session.feed(data[i : i + step])
            fed.append(min(i + step, len(data)))
            blobs.append(session.snapshot())
        session.abort()

        blob, offset = blobs[1], fed[1]
        restored = gcx.restore_session(blob)
        assert restored.bytes_fed == offset
        _feed_range(restored, data, offset, len(data))
        assert restored.finish().output == reference.output

    def test_binary_output_session_roundtrip(self, gcx, doc, reference):
        # the server path: binary_output sessions snapshot/restore too,
        # and undrained output is carried inside the blob
        data = doc.encode()
        session = gcx.session(
            QUERY, checkpointable=True, binary_output=True, max_pending_output=None
        )
        half = len(data) // 2
        _feed_range(session, data, 0, half)
        blob = session.snapshot()
        session.abort()
        restored = gcx.restore_session(blob)
        _feed_range(restored, data, half, len(data))
        assert restored.finish().output == reference.output

    def test_restore_carries_delivered_output_offset(self, gcx, doc, reference):
        # the drained-prefix position is part of the snapshot: a session
        # restored from the blob reports the session-absolute delivered
        # offset, not zero — what keeps post-resume checkpoints exact
        data = doc.encode()
        session = gcx.session(QUERY, checkpointable=True, binary_output=True)
        _feed_range(session, data, 0, len(data) // 2)
        early = session.drain_output()
        blob = session.snapshot()
        assert session.delivered_output == len(early)
        session.abort()
        restored = gcx.restore_session(blob)
        assert restored.delivered_output == len(early)
        _feed_range(restored, data, len(data) // 2, len(data))
        result = restored.finish()
        assert early.decode() + result.output == reference.output


class TestJoinCheckpoint:
    """Q8's inner loop is a hash join (DESIGN.md §10): its frame is
    snapshotted as the child scan it extends and restored without its
    index, so it resumes as the nested loop — exact wherever it froze."""

    CHUNK = 384

    @staticmethod
    def _in_build_pass(session) -> bool:
        return any(
            frame[0][0] == ITER_JOIN and frame[5] is not None
            for frame in session._evaluator._frames
        )

    def test_q8_restores_at_every_chunk_boundary(self, gcx, doc):
        reference = gcx.run(gcx.compile(OTHER_QUERY), doc)
        data = doc.encode()
        session = gcx.session(OTHER_QUERY, checkpointable=True)
        checkpoints = []
        for start in range(0, len(data), self.CHUNK):
            stop = min(start + self.CHUNK, len(data))
            session.feed(data[start:stop])
            session.freeze()
            checkpoints.append((stop, session.snapshot(), self._in_build_pass(session)))
            session.thaw()
        result = session.finish()
        assert result.output == reference.output
        assert any(building for _stop, _blob, building in checkpoints)

        for offset, blob, _building in checkpoints:
            restored = GCXEngine().restore_session(blob)
            assert restored.bytes_fed == offset
            _feed_range(restored, data, offset, len(data), self.CHUNK)
            result = restored.finish()
            assert result.output == reference.output, offset
            assert result.stats.watermark == reference.stats.watermark, offset
            assert result.stats.series == reference.stats.series, offset

    def test_unknown_frame_kinds_are_refused(self):
        spec = (99, None, None)
        program = OperatorProgram(((OP_FOR_INIT, spec),), 0)
        evaluator = CompiledEvaluator(program, None, None, None)
        evaluator._frames = [[spec, None, False]]
        with pytest.raises(ValueError, match="kind 99"):
            evaluator.snapshot_state()
        state = {
            "pc": 0,
            "slots": [],
            "frames": [{"init_pc": 0, "kind": "odd"}],
        }
        with pytest.raises(ValueError, match="unknown loop frame kind"):
            evaluator.restore_state(state, lambda ref: None)


# ---------------------------------------------------------------------------
# the codec's primitives
# ---------------------------------------------------------------------------


class TestCodecPrimitives:
    @pytest.mark.parametrize(
        "value",
        [0, 1, -1, 2**63 - 1, -(2**63), 2**63, 2**200 + 17, -(2**200) - 17],
    )
    def test_svarint_roundtrip_is_unbounded(self, value):
        # slot values are Python ints (e.g. large aggregate sums), so
        # the zigzag must not assume a 64-bit domain
        w = BlobWriter()
        w.svarint(value)
        assert BlobReader(w.getvalue()).svarint() == value

    def test_runaway_varint_still_refused(self):
        # endless continuation bytes in a corrupt blob must fail loudly
        # rather than materialize an absurd integer
        with pytest.raises(SnapshotFormatError, match="overflow"):
            BlobReader(b"\xff" * 4096).varint()

    def test_bool_roundtrip(self):
        w = BlobWriter()
        w.bool_(True)
        w.bool_(False)
        r = BlobReader(w.getvalue())
        assert r.bool_() is True and r.bool_() is False

    @pytest.mark.parametrize("corrupt", [b"\x02", b"\x80", b"\xff"])
    def test_corrupt_bool_byte_refused(self, corrupt):
        # a bit-flipped flag must not silently decode as False
        with pytest.raises(SnapshotFormatError, match="bool"):
            BlobReader(corrupt).bool_()


# ---------------------------------------------------------------------------
# freeze/thaw mechanics
# ---------------------------------------------------------------------------


class TestFreezeThaw:
    def test_freeze_parks_and_thaw_resumes(self, gcx, doc, reference):
        data = doc.encode()
        session = gcx.session(QUERY, checkpointable=True)
        _feed_range(session, data, 0, len(data) // 3)
        session.freeze()
        assert session.frozen
        session.freeze()  # idempotent while frozen
        session.thaw()
        assert not session.frozen
        _feed_range(session, data, len(data) // 3, len(data))
        assert session.finish().output == reference.output

    def test_thaw_requires_frozen(self, gcx):
        session = gcx.session(QUERY, checkpointable=True)
        with pytest.raises(SessionStateError):
            session.thaw()
        session.abort()

    def test_freeze_after_finish_refused(self, gcx, doc):
        session = gcx.session(QUERY, checkpointable=True)
        session.feed(doc)
        session.finish()
        with pytest.raises(SessionStateError, match="finished"):
            session.freeze()

    def test_non_checkpointable_session_refuses_freeze(self, gcx, doc):
        session = gcx.session(QUERY)
        session.feed(doc[:1000])
        with pytest.raises(SessionStateError, match="checkpointable"):
            session.freeze()
        with pytest.raises(SessionStateError, match="checkpointable"):
            session.snapshot()
        session.abort()

    def test_checkpointable_requires_compiled_tiers(self, doc):
        # the interpreted projector/evaluator carry closures the codec
        # cannot represent; asking for a checkpointable session on them
        # must fail fast at open time — the whole interpreted tier, and
        # the mixed pipelines of plans without a DFA (NFA projector
        # under Kernel B) or without a program (fused projector under
        # the pull evaluator)
        with pytest.raises(SessionStateError):
            GCXEngine(tier="interpreted").session(QUERY, checkpointable=True)
        engine = GCXEngine()
        plan = engine.compile(QUERY)
        for stripped in (
            dataclasses.replace(plan, dfa=None),
            dataclasses.replace(plan, program=None),
        ):
            with pytest.raises(SessionStateError):
                engine.session(stripped, checkpointable=True)

    def test_checkpointable_pins_table_tier(self, gcx, doc, reference):
        # generated-tier engines silently drop to the table tier for
        # checkpointable sessions — results must not change
        engine = GCXEngine(tier="generated")
        session = engine.session(QUERY, checkpointable=True)
        session.feed(doc)
        assert session.finish().output == reference.output


# ---------------------------------------------------------------------------
# refusals: stale versions and foreign blobs are rejected, not misread
# ---------------------------------------------------------------------------


class TestRefusals:
    @pytest.fixture()
    def blob(self, gcx, doc):
        data = doc.encode()
        session = gcx.session(QUERY, checkpointable=True)
        _feed_range(session, data, 0, len(data) // 2)
        blob = session.snapshot()
        session.abort()
        return blob

    def test_header_roundtrip(self, blob, gcx):
        _reader, plan_text, digest = read_header(blob)
        assert plan_text == gcx.compile(QUERY).canonical_text()
        assert digest
        assert peek_plan_text(blob) == plan_text

    def test_stale_format_version_refused(self, blob, gcx):
        stale = (
            blob[:4]
            + (FORMAT_VERSION + 1).to_bytes(2, "big")
            + blob[6:]
        )
        with pytest.raises(SnapshotFormatError, match="not supported"):
            gcx.restore_session(stale)

    def test_bad_magic_refused(self, blob, gcx):
        with pytest.raises(SnapshotFormatError):
            gcx.restore_session(b"XXXX" + blob[4:])

    @pytest.mark.parametrize("keep", [0, 3, 6, 40])
    def test_truncated_blob_refused(self, blob, gcx, keep):
        with pytest.raises(SnapshotFormatError):
            gcx.restore_session(blob[:keep])

    def test_wrong_plan_refused(self, blob, gcx):
        other = gcx.compile(OTHER_QUERY)
        with pytest.raises(SnapshotPlanMismatch):
            StreamSession.restore(other, blob)

    def test_snapshot_errors_are_value_errors(self, blob, gcx):
        # the server maps ValueError to a QUERY ERROR frame; every
        # refusal must be caught by that net, not crash the worker
        assert issubclass(SnapshotFormatError, ValueError)
        assert issubclass(SnapshotPlanMismatch, ValueError)


# ---------------------------------------------------------------------------
# cross-process restore: the blob is the whole truth
# ---------------------------------------------------------------------------


_RESTORE_SCRIPT = """\
import sys

from repro.core.engine import GCXEngine

blob_path, data_path, offset = sys.argv[1], sys.argv[2], int(sys.argv[3])
with open(blob_path, "rb") as fh:
    blob = fh.read()
with open(data_path, "rb") as fh:
    data = fh.read()
engine = GCXEngine()
session = engine.restore_session(blob)
assert session.bytes_fed == offset, (session.bytes_fed, offset)
for i in range(offset, len(data), 4096):
    session.feed(data[i : i + 4096])
result = session.finish()
sys.stdout.write(result.output)
"""


def test_restore_in_fresh_process(gcx, doc, reference, tmp_path):
    data = doc.encode()
    split = len(data) // 2
    session = gcx.session(QUERY, checkpointable=True)
    _feed_range(session, data, 0, split)
    blob = session.snapshot()
    session.abort()

    blob_path = tmp_path / "session.gcxs"
    data_path = tmp_path / "doc.xml"
    script_path = tmp_path / "restore_child.py"
    blob_path.write_bytes(blob)
    data_path.write_bytes(data)
    script_path.write_text(_RESTORE_SCRIPT)

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(script_path), str(blob_path), str(data_path), str(split)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == reference.output
