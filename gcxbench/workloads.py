"""The benchmark's four workloads: seeded inputs, query mixes, references.

Every input is generated from the run's ``--seed``; the engine only ever
receives the generated bytes.  Sizes are fixed per workload and the seed
varies content only, so run-to-run cost stays comparable across seeds.

Each workload sends its queries in a fixed *mix*: one round of query
keys, repeated.  The mixes are weighted so that neither the median nor
the 90th percentile of request latency falls in the gap between two
queries' latency clusters (a percentile sitting on a cluster boundary
flips between clusters from one run to the next).  With the query
latencies of this engine, ordered fastest first, each mix puts the p50
in the middle of one query's share of the requests and the p90 in the
middle of another's; README.md lists which query sets each percentile.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.xmark.generator import generate_document
from repro.xmark.queries import ADAPTED_QUERIES, Q20_GROUPED

#: chunk size of the pull workloads' traced session pass (the engine's
#: own read size for file-like sources)
PULL_CHUNK = 64 * 1024
#: CHUNK frame size of the served workload
SERVED_CHUNK = 16 * 1024


@dataclass
class Workload:
    name: str
    why: str
    #: "pull" (GCXEngine.run in an engine worker process) or "served"
    #: (a ``gcx serve`` process driven by a closed-loop client)
    mode: str
    #: query key -> query text
    queries: dict[str, str]
    documents: list[bytes]
    #: query key -> indices of the documents that query runs over; the
    #: k-th request of a query takes the k-th of them, round robin
    docs_for: dict[str, list[int]]
    #: one round of requests, by query key
    mix: list[str]
    chunk_size: int
    #: outputs known by construction, (query key, document index) ->
    #: output; every other pair's reference comes from the DOM engine
    known_outputs: dict[tuple[str, int], str] = field(default_factory=dict)

    def pairs(self) -> list[tuple[str, int]]:
        """Every distinct (query, document) request of the workload."""
        return [(key, doc) for key in self.queries for doc in self.docs_for[key]]


WHY = {
    "xmark_stream": "Streamable XMark Q1/Q6/Q13/Q20 at 1.5 MB: lexer and "
    "projector do most of the work, evaluator and buffer little",
    "xmark_join": "Blocking Q8 join and four-pass Q20 grouped at 0.37 MB: "
    "evaluator-bound with a buffer linear in the input",
    "served_sessions": "gcx serve with one closed-loop client on 90 KB "
    "documents: fixed per-request session and wire costs dominate",
    "hostile_shapes": "Depth-2000 nesting, entity-dense and attribute-wide "
    "records: loads the O(depth) role walks and entity decoding",
}

#: one round of the Q1/Q13/Q20/Q6 mix: 3 x Q1, 4 x Q13, 1 x Q20,
#: 2 x Q6 (fastest first), so the p50 lies in Q13's share (0.3-0.7)
#: and the p90 in Q6's (0.8-1.0)
_STREAM_MIX = ["q1", "q13", "q6", "q13", "q1", "q20", "q13", "q6", "q1", "q13"]
#: 7 x Q20 grouped, 3 x Q8: p50 in Q20 grouped's share, p90 in Q8's
_JOIN_MIX = ["q20g", "q8", "q20g", "q20g", "q8", "q20g", "q20g", "q8", "q20g", "q20g"]
#: 3 x wide, 5 x entity-dense, 2 x deep (fastest first): p50 in the
#: entity-dense share (0.3-0.8), p90 in the deep share (0.8-1.0)
_HOSTILE_MIX = [
    "wide", "entity", "deep", "entity", "wide",
    "entity", "entity", "deep", "wide", "entity",
]

#: full-size and tiny (test) input sizes
_SIZES = {
    False: {"stream": 32.0, "join": 8.0, "served": 2.0,
            "depth": 2000, "articles": 350, "records": 300},
    True: {"stream": 0.5, "join": 0.5, "served": 0.25,
           "depth": 40, "articles": 8, "records": 8},
}

DEEP_QUERY = "for $x in /site/a return $x"
ENTITY_QUERY = (
    "for $r in /dblp/article return <entry>{$r/author, $r/title}</entry>"
)
WIDE_QUERY = (
    "for $r in /records/rec return if ($r/@a3 < 500) then $r else ()"
)


def rounds(mix: list[str], docs_for: dict[str, list[int]]):
    """Endless rounds of (query, document) requests: each round is *mix*
    in order, and the k-th request of a query takes the k-th of its
    documents, round robin."""
    seen = dict.fromkeys(docs_for, 0)
    while True:
        batch = []
        for key in mix:
            docs = docs_for[key]
            batch.append((key, docs[seen[key] % len(docs)]))
            seen[key] += 1
        yield batch


def _xmark_docs(rng: random.Random, scale: float, count: int) -> list[bytes]:
    return [
        generate_document(scale=scale, seed=rng.randrange(1 << 30)).encode()
        for _ in range(count)
    ]


def deep_document(rng: random.Random, depth: int) -> tuple[bytes, str]:
    """``<a>`` nested *depth* deep under ``/site``, and the output of
    :data:`DEEP_QUERY` over it — the nested subtree itself, known by
    construction (the DOM reference recurses once per level and cannot
    take this depth)."""
    leaf = " ".join(rng.choice(_WORDS) for _ in range(4))
    subtree = "<a>" * depth + leaf + "</a>" * depth
    return f"<site>{subtree}</site>".encode(), subtree


_WORDS = [
    "stream", "buffer", "query", "node", "role", "purge", "path",
    "join", "token", "lexer", "scan", "signoff", "witness", "site",
]
# predefined and numeric character references only: named entities
# need an internal DTD subset, which the lexers do not parse yet
_REFS = ["&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&#252;", "&#xE9;",
         "&#228;", "&#x2014;", "&#246;"]
_TITLE = ["Streaming", "XQuery", "&amp;", "&lt;buffer&gt;", "&#x3B1;-GC",
          "caf&#233;", "&quot;projection&quot;", "M&#xFC;nchen", "joins"]


def entity_document(rng: random.Random, articles: int) -> bytes:
    """DBLP-style records whose text is dense in character references."""
    out = ["<dblp>"]
    for i in range(articles):
        out.append(
            f'<article key="journals/x/{rng.randrange(10**6)}" '
            f'mdate="20{rng.randrange(10, 24)}-0{rng.randrange(1, 10)}-1{i % 10}">'
        )
        for _ in range(3):
            name = "".join(
                rng.choice("MKSJT") + rng.choice(_REFS) + "ller "
                for _ in range(3)
            )
            out.append(f"<author>{name}</author>")
        title = " ".join(rng.choice(_TITLE) for _ in range(10))
        out.append(f"<title>{title}</title><year>{rng.randrange(1970, 2025)}</year>")
        out.append("</article>")
    out.append("</dblp>")
    return "".join(out).encode()


def wide_document(rng: random.Random, records: int, width: int = 24) -> bytes:
    """Records with *width* attributes each."""
    out = ["<records>"]
    for i in range(records):
        attrs = " ".join(f'a{j}="{rng.randrange(1000)}"' for j in range(width))
        out.append(f'<rec id="r{i}" {attrs}><v>{i}</v></rec>')
    out.append("</records>")
    return "".join(out).encode()


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The inputs of workload *name* for *seed* (tiny: test sizes)."""
    if name not in WHY:
        raise KeyError(name)
    size = _SIZES[tiny]
    rng = random.Random(f"{name}:{seed}")
    xmark = {key: ADAPTED_QUERIES[key].text for key in ("q1", "q13", "q20", "q6")}
    if name in ("xmark_stream", "served_sessions"):
        served = name == "served_sessions"
        count = 4 if served else 2
        docs = _xmark_docs(rng, size["served" if served else "stream"], count)
        return Workload(
            name, WHY[name], "served" if served else "pull", xmark, docs,
            {key: list(range(count)) for key in xmark}, _STREAM_MIX,
            SERVED_CHUNK if served else PULL_CHUNK,
        )
    if name == "xmark_join":
        docs = _xmark_docs(rng, size["join"], 2)
        queries = {"q8": ADAPTED_QUERIES["q8"].text, "q20g": Q20_GROUPED.text}
        return Workload(
            name, WHY[name], "pull", queries, docs,
            {key: [0, 1] for key in queries}, _JOIN_MIX, PULL_CHUNK,
        )
    deep, deep_output = deep_document(rng, size["depth"])
    docs = [
        wide_document(rng, size["records"]),
        entity_document(rng, size["articles"]),
        deep,
    ]
    queries = {"wide": WIDE_QUERY, "entity": ENTITY_QUERY, "deep": DEEP_QUERY}
    return Workload(
        name, WHY[name], "pull", queries, docs,
        {"wide": [0], "entity": [1], "deep": [2]}, _HOSTILE_MIX, PULL_CHUNK,
        known_outputs={("deep", 2): deep_output},
    )


def reference_outputs(workload: Workload) -> dict[tuple[str, int], str]:
    """The expected output of every (query, document) pair.

    Computed by :class:`~repro.baselines.dom_engine.FullDomEngine` —
    a parse-everything DOM interpreter that shares no runtime with the
    streaming engine — over the document decoded to ``str`` (so it runs
    the str lexer, not the bytes lexer the engine uses), except where
    the generator already knows the output.
    """
    from repro.baselines.dom_engine import FullDomEngine

    dom = FullDomEngine(record_series=False)
    compiled = {key: dom.compile(text) for key, text in workload.queries.items()}
    out = dict(workload.known_outputs)
    for key, doc in workload.pairs():
        if (key, doc) not in out:
            text = workload.documents[doc].decode("utf-8")
            out[(key, doc)] = dom.run(compiled[key], text).output
    return out
