"""Hash-joined value joins (DESIGN.md §10, "Value joins").

A loop ``for $t in $c/step return if (A = B) then …`` whose comparison
pairs a path from ``$t`` with a path from an outer node variable is
compiled to an ``ITER_JOIN`` frame: the first pass scans the children
exactly like the nested loop and indexes their keys, later passes over
the same unchanged context probe the index.  The interpreting
:class:`~repro.core.evaluator.PullEvaluator` keeps the nested loop and
is the oracle here:

* program shape — which loops become joins, and which stay scans;
* differential runs of both compiled tiers against the oracle over
  generated person/auction documents (duplicate, missing, multi-valued,
  numerically equal, NaN and text keys) at random chunkings, including
  the variants that force a rebuild;
* the key function against ``_compare("=")``;
* linear work on XMark Q8, counted in comparisons rather than timed.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.buffer import Buffer
from repro.core.codegen import CodegenEvaluator, generate_plan_kernels
from repro.core.engine import GCXEngine
from repro.core.evaluator import _compare, equality_key
from repro.core.program import (
    ITER_CHILD,
    ITER_JOIN,
    OP_FOR_INIT,
    OP_FOR_NEXT,
    OP_IF,
    OP_JUMP,
    CompiledEvaluator,
    OperatorProgram,
    compile_program,
)
from repro.core.projector import CompiledStreamProjector
from repro.xmark.generator import generate_document
from repro.xmark.queries import ADAPTED_QUERIES, Q20_GROUPED
from repro.xmlio.lexer import make_lexer
from repro.xmlio.writer import XmlWriter
from repro.xpath.parser import parse_path
from repro.xquery import ast as q

from test_program_vm import _assert_identical, _partition


def _iter_kinds(plan) -> list[int]:
    return [op[1][0] for op in plan.program.ops if op[0] == OP_FOR_INIT]


def _join(then: str, cond: str = "$t/buyer/@person = $p/@id") -> str:
    """Q8's nesting with the join condition and then-branch swapped."""
    return (
        "<r>{ for $s in /site return for $cl in $s/closed_auctions return "
        "for $pp in $s/people return for $p in $pp/person return "
        "<i>{ $p/name/text(), for $t in $cl/closed_auction return "
        f"if ({cond}) then {then} else () }}</i> }}</r>"
    )


def _join_then_names(cond: str) -> str:
    """Q8's nesting with nothing before the join that pulls the person:
    whether the join evaluates ``$p/@id`` decides whether the person is
    pulled before ``</i>`` is written or after."""
    return (
        "<r>{ for $s in /site return for $cl in $s/closed_auctions return "
        "for $pp in $s/people return for $p in $pp/person return "
        "(<i>{ for $t in $cl/closed_auction return "
        f"if ({cond}) then $t/price else () }}</i>, $p/name) }}</r>"
    )


JOINS = {
    "inner-first": _join("$t/price"),
    "probe-first": _join("$t/price", "$p/@id = $t/buyer/@person"),
    "construct": _join("<m>{ $t/price/text() }</m>"),
    "text-keys": _join("$t/price", "$t/buyer/text() = $p/name/text()"),
    # $cl is bound once per person: with two closed_auctions sections
    # consecutive passes alternate contexts and every pass rebuilds
    "rebound": (
        "<r>{ for $s in /site return for $pp in $s/people return "
        "for $p in $pp/person return <i>{ for $cl in $s/closed_auctions "
        "return for $t in $cl/closed_auction return "
        "if ($t/buyer/@person = $p/@id) then $t/price else () }</i> }</r>"
    ),
    "then-names": _join_then_names("$t/buyer/@person = $p/@id"),
    "then-names-probe-first": _join_then_names("$p/@id = $t/buyer/@person"),
}


# ---------------------------------------------------------------------------
# program shape
# ---------------------------------------------------------------------------


class TestJoinShape:
    def test_q8_inner_loop_is_a_join(self):
        plan = GCXEngine().compile(ADAPTED_QUERIES["q8"].text)
        kinds = _iter_kinds(plan)
        assert kinds.count(ITER_JOIN) == 1
        assert kinds[-1] == ITER_JOIN  # the innermost loop, over $t
        assert plan.program.hash_joins() == ["$t/buyer/@person = $p/@id"]

    def test_join_keeps_op_count_and_pcs(self):
        # the join only swaps the iteration kind of one ForScan: the
        # same loop under `!=`, which stays a scan, has the same ops
        # and jump targets
        engine = GCXEngine()
        joined = engine.compile(_join("$t/price")).program.ops
        scanned = engine.compile(
            _join("$t/price", "$t/buyer/@person != $p/@id")
        ).program.ops

        def shape(ops):
            return [
                (op[0], op[-1] if op[0] in (OP_FOR_NEXT, OP_IF, OP_JUMP) else None)
                for op in ops
            ]

        assert shape(joined) == shape(scanned)

    @pytest.mark.parametrize("name", sorted(JOINS))
    def test_variants_compile_to_joins(self, name):
        plan = GCXEngine().compile(JOINS[name])
        assert ITER_JOIN in _iter_kinds(plan)

    def test_describe_renders_join_scan(self):
        plan = GCXEngine().compile(JOINS["probe-first"])
        listing = plan.program.describe()
        assert "JoinScan(ctx=1 inner=$t/buyer/@person probe=$p/@id)" in listing
        assert "hash join: $t/buyer/@person = $p/@id" in plan.describe()

    @pytest.mark.parametrize(
        "query",
        [
            ADAPTED_QUERIES["q1"].text,  # comparison with a literal
            ADAPTED_QUERIES["q20"].text,  # >=, and the if is not the body
            Q20_GROUPED.text,  # >= as the whole body
            _join("$t/price", "$t/buyer/@person != $p/@id"),
            _join("$t/price", "$t/buyer/@person = $t/seller/@person"),
            _join("$t/price", "$t/buyer/@person = /site/@id"),
            # positional step: the scan stops after one child
            _join("$t/price").replace(
                "$cl/closed_auction return", "$cl/closed_auction[1] return"
            ),
        ],
    )
    def test_other_loops_stay_scans(self, query):
        plan = GCXEngine().compile(query)
        assert ITER_JOIN not in _iter_kinds(plan)
        assert plan.program.hash_joins() == []
        assert "hash join" not in plan.describe()

    def test_only_q8_joins_among_the_xmark_queries(self):
        engine = GCXEngine()
        joined = sorted(
            key
            for key, query in ADAPTED_QUERIES.items()
            if engine.compile(query.text).program is not None
            and ITER_JOIN in _iter_kinds(engine.compile(query.text))
        )
        assert joined == ["q8"]


# ---------------------------------------------------------------------------
# differential: generated and tables tiers against the nested-loop oracle
# ---------------------------------------------------------------------------

#: numerically equal spellings, NaN, underscores, infinities, strings
KEYS = ["7", "7.0", " 7", "7e0", "NaN", "nan", "inf", "1_0", "10", "-0", "0",
        "abc", "", "p1"]

key_st = st.sampled_from(KEYS)


@st.composite
def people_st(draw):
    people = []
    for _ in range(draw(st.integers(0, 6))):
        ident = draw(st.none() | key_st)
        attr = "" if ident is None else f' id="{ident}"'
        names = "".join(
            f"<name>{draw(key_st)}</name>" for _ in range(draw(st.integers(1, 2)))
        )
        people.append(f"<person{attr}>{names}</person>")
    return "<people>" + "".join(people) + "</people>"


@st.composite
def auctions_st(draw, base):
    auctions = []
    for i in range(draw(st.integers(0, 6))):
        buyers = []
        for _ in range(draw(st.integers(0, 2))):  # missing or multi-valued
            ref = draw(st.none() | key_st)
            attr = "" if ref is None else f' person="{ref}"'
            text = draw(st.none() | key_st) or ""
            buyers.append(f"<buyer{attr}>{text}</buyer>")
        seller = draw(key_st)
        auctions.append(
            f'<closed_auction><seller person="{seller}"></seller>'
            f"{''.join(buyers)}<price>{base + i}</price></closed_auction>"
        )
    return "<closed_auctions>" + "".join(auctions) + "</closed_auctions>"


@st.composite
def site_st(draw):
    sections = [draw(people_st()), draw(auctions_st(100))]
    if draw(st.booleans()):
        sections.append(draw(auctions_st(200)))  # a second inner context
    order = draw(st.permutations(range(len(sections))))
    return "<site>" + "".join(sections[i] for i in order) + "</site>"


def _run_tier(plan, tier, chunks):
    return GCXEngine(tier=tier).run(plan, iter(chunks))


def _with_signoff_in_then(query: str, var: str, path: str, role_path: str):
    """*query*'s plan with ``signOff($var/path, role)`` appended to the
    join's then-branch, *role* being the role on *role_path*.  Rewritten
    queries never contain this — the join loop's signOffs are hoisted
    out of it — so the plan is patched by hand.  Every match removes
    roles, so a probe pass drops back to the scan and the next pass
    rebuilds."""
    plan = GCXEngine().compile(query)
    role = next(
        role.name for role in plan.analysis.roles if str(role.path) == role_path
    )

    def patch(expr):
        if isinstance(expr, q.IfExpr) and isinstance(expr.orelse, q.Empty):
            signoff = q.SignOff(var, parse_path(path), role)
            return dataclasses.replace(expr, then=q.Sequence((expr.then, signoff)))
        if dataclasses.is_dataclass(expr) and not isinstance(expr, type):
            changes = {}
            for field in dataclasses.fields(expr):
                value = getattr(expr, field.name)
                new = (
                    tuple(patch(v) for v in value)
                    if isinstance(value, tuple)
                    else patch(value)
                )
                if new is not value:
                    changes[field.name] = new
            return dataclasses.replace(expr, **changes) if changes else expr
        return expr

    rewritten = patch(plan.rewritten)
    assert rewritten != plan.rewritten
    program = compile_program(rewritten)
    assert program.hash_joins()
    return dataclasses.replace(
        plan,
        rewritten=rewritten,
        program=program,
        kernels=generate_plan_kernels(plan.dfa, plan.analysis, program),
    )


_PRICE_DOS = "/site/closed_auctions/closed_auction/price/descendant-or-self::node()"
_PLANS: dict = {}


def _plan(name):
    if name not in _PLANS:
        if name == "signoff-in-then":
            _PLANS[name] = _with_signoff_in_then(
                JOINS["inner-first"], "t", "price/descendant-or-self::node()",
                _PRICE_DOS,
            )
        else:
            _PLANS[name] = GCXEngine().compile(JOINS[name])
    return _PLANS[name]


@pytest.mark.parametrize("name", sorted(JOINS) + ["signoff-in-then"])
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(doc=site_st(), cuts=st.lists(st.integers(0, 10_000), max_size=8))
def test_join_tiers_equal_nested_loop_oracle(name, doc, cuts):
    plan = _plan(name)
    chunks = _partition(doc, cuts)
    oracle = _run_tier(plan, "interpreted", chunks)
    for tier in ("generated", "tables"):
        _assert_identical(_run_tier(plan, tier, chunks), oracle, f"{name}/{tier}")


def test_probe_pass_rescans_when_the_body_changes_keys():
    # the first person matches nothing (complete index); the second
    # probes for "7" and meets the first auction, whose then-branch
    # purges every buyer's <b> — the second auction's buyer now reads
    # "7" as well, which only a rescan of the rest of the pass sees
    plan = _with_signoff_in_then(
        _join("$t/price", "$t/buyer = $p/name"),
        "cl",
        "closed_auction/buyer/b/descendant-or-self::node()",
        "/site/closed_auctions/closed_auction/buyer/descendant-or-self::node()",
    )
    doc = (
        "<site><people><person><name>9</name></person>"
        "<person><name>7</name></person></people><closed_auctions>"
        "<closed_auction><buyer>7</buyer><price>1</price></closed_auction>"
        "<closed_auction><buyer><a>7</a><b>0</b></buyer><price>2</price>"
        "</closed_auction></closed_auctions></site>"
    )
    oracle = _run_tier(plan, "interpreted", [doc])
    assert "<price>1</price><price>2</price>" in oracle.output
    for tier in ("generated", "tables"):
        _assert_identical(_run_tier(plan, tier, [doc]), oracle, tier)


def _as_nested_loop(plan):
    """*plan* with its join frames turned back into child scans."""
    ops = tuple(
        (OP_FOR_INIT, (ITER_CHILD,) + op[1][1:4])
        if op[0] == OP_FOR_INIT and op[1][0] == ITER_JOIN
        else op
        for op in plan.program.ops
    )
    program = OperatorProgram(ops, plan.program.n_slots)
    return dataclasses.replace(plan, program=program, kernels=None)


def _outputs_at_each_chunk(plan, data: bytes, step: int) -> list[str]:
    """The output a session has written each time it blocks for input."""
    session = GCXEngine().session(plan, checkpointable=True)
    drained = []
    for start in range(0, len(data), step):
        session.feed(data[start : start + step])
        session.freeze()  # parks the evaluator where it needs input
        drained.append(session.drain_output())
        session.thaw()
    drained.append(session.finish().output)
    return drained


@pytest.mark.parametrize("name", ["then-names", "then-names-probe-first"])
@pytest.mark.parametrize(
    "auctions",
    ["", "<closed_auction><price>1</price></closed_auction>"],
    ids=["no-auctions", "no-buyers"],
)
def test_probe_operand_pulled_only_where_the_nested_loop_pulls(name, auctions):
    # The index of a pass over auctions without buyers has no keys; the
    # nested loop evaluates $p/@id only if the probe is written first
    # and there is an auction.  Pulling the person anywhere else moves
    # the point where the session blocks relative to the output.
    plan = _plan(name)
    data = (
        f"<site><closed_auctions>{auctions}</closed_auctions><people>"
        '<person id="a"><name>x</name></person>'
        '<person id="b"><name>y</name></person>'
        '<person id="c"><name>z</name></person></people></site>'
    ).encode()
    expected = _outputs_at_each_chunk(_as_nested_loop(plan), data, 5)
    assert _outputs_at_each_chunk(plan, data, 5) == expected


@pytest.mark.parametrize("key", ["q8"])
@pytest.mark.parametrize("chunk", [None, 97])
def test_xmark_join_matches_oracle(key, chunk, xmark_small):
    plan = GCXEngine().compile(ADAPTED_QUERIES[key].text)
    chunks = (
        [xmark_small]
        if chunk is None
        else [xmark_small[i : i + chunk] for i in range(0, len(xmark_small), chunk)]
    )
    oracle = _run_tier(plan, "interpreted", chunks)
    for tier in ("generated", "tables"):
        _assert_identical(_run_tier(plan, tier, chunks), oracle, tier)


# ---------------------------------------------------------------------------
# the key function
# ---------------------------------------------------------------------------

numeric_text = st.one_of(
    st.sampled_from(KEYS + ["1_000", "_1", "1__0", " inf ", "-inf", "Infinity",
                            "+nan", "1e999", "-1e999", "0x10", "7 ", "\t7\n"]),
    st.floats(allow_nan=True).map(str),
    st.integers(-20, 20).map(str),
    st.text(alphabet="0123456789._-+eE infatyINFATY", max_size=8),
    st.text(max_size=4),
)


@settings(max_examples=600, deadline=None)
@given(a=numeric_text, b=numeric_text)
def test_equality_key_agrees_with_compare(a, b):
    ka, kb = equality_key(a), equality_key(b)
    keyed_equal = ka is not None and kb is not None and ka == kb
    assert _compare("=", a, b) == keyed_equal
    if keyed_equal:
        assert hash(ka) == hash(kb)


def test_equality_key_spellings():
    assert {equality_key(v) for v in ("7", "7.0", " 7", "7e0", "7 ")} == {7.0}
    assert equality_key("NaN") is None
    assert equality_key("abc") == "abc"
    assert equality_key("-0") == equality_key("0")


# ---------------------------------------------------------------------------
# linear work, by count
# ---------------------------------------------------------------------------


class _Counting:
    comparisons = 0

    def _comparison(self, spec):
        type(self).comparisons += 1
        return super()._comparison(spec)


class _CountingVM(_Counting, CompiledEvaluator):
    pass


class _CountingKernelB(_Counting, CodegenEvaluator):
    pass


def _count_q8(scale: float, counting) -> tuple[int, int, int, int]:
    """(comparisons, persons, closed auctions, matches) of Q8 at *scale*."""
    doc = generate_document(scale=scale, seed=7)
    plan = GCXEngine().compile(ADAPTED_QUERIES["q8"].text)
    buffer = Buffer()
    writer = XmlWriter()
    projector = CompiledStreamProjector(make_lexer(doc.encode()), plan.dfa, buffer)
    counting.comparisons = 0
    if counting is _CountingKernelB:
        evaluator = counting(
            plan.kernels.evaluator, plan.program, projector, buffer, writer
        )
    else:
        evaluator = counting(plan.program, projector, buffer, writer)
    evaluator.run()
    output = writer.getvalue()
    assert output == GCXEngine(tier="interpreted").run(plan, doc).output
    return (
        counting.comparisons,
        doc.count("<person "),
        doc.count("<closed_auction>"),
        output.count("<price>"),
    )


@pytest.mark.parametrize("counting", [_CountingVM, _CountingKernelB])
def test_q8_comparisons_grow_linearly(counting):
    small = _count_q8(1, counting)
    large = _count_q8(4, counting)
    for comparisons, persons, auctions, matches in (small, large):
        assert comparisons <= auctions + matches + persons
        assert persons * auctions > 2 * comparisons  # the nested loop's count
    assert large[0] <= 4.4 * small[0]
