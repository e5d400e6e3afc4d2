"""The pull-based query evaluator.

"The query evaluator sequentially evaluates the query expressions until
it has to block either because a new node is required (e.g., when a
variable is bound to the next node in its for-loop) or a
signOff-statement is encountered.  In consequence, a request is issued
to the buffer manager, and query evaluation remains blocked until the
buffer manager has responded." (paper, Section 3)

In this implementation the blocking pull chain is realised by the
``_next_child`` / ``_ensure_closed`` primitives: whenever the evaluator
needs data that is not yet buffered, it advances the stream projector
one token at a time until the data arrives or its absence is evident
(the enclosing element closed).

Correctness of the role accounting relies on two disciplines, both
explained in DESIGN.md §3:

* before a signOff executes, its context node is pulled to its end tag
  (otherwise later-arriving descendants could receive role instances
  that have already been signed off);
* signOff paths are evaluated in *derivation* mode — one removal per
  match derivation — mirroring exactly the multiplicity with which the
  matcher assigned the roles.
"""

from __future__ import annotations

from repro.core.buffer import Buffer, BufferNode
from repro.core.projector import CompiledStreamProjector, StreamProjector
from repro.xmlio.writer import XmlWriter
from repro.xpath.ast import Axis, Path, Step
from repro.xquery import ast as q


class EvaluationError(RuntimeError):
    """Raised when the evaluator meets an unsupported construct."""


class PullEvaluator:
    """Evaluates one rewritten query over one projected stream."""

    def __init__(
        self,
        query: q.Query,
        projector: StreamProjector | CompiledStreamProjector,
        buffer: Buffer,
        writer: XmlWriter,
        gc_enabled: bool = True,
    ):
        self._query = query
        self._projector = projector
        self._buffer = buffer
        self._writer = writer
        self._gc_enabled = gc_enabled
        self._env: dict[str, BufferNode] = {}
        self._scalars: dict[str, float | int | str] = {}

    def run(self) -> None:
        """Evaluate the query to completion."""
        self._eval(self._query.body)

    # ------------------------------------------------------------------
    # blocking primitives (the buffer-manager protocol)
    # ------------------------------------------------------------------

    def _ensure_closed(self, node: BufferNode) -> None:
        while not node.closed and not node.purged:
            if not self._projector.advance():
                return

    def _next_child(self, node: BufferNode, after_seq: int, predicate):
        while True:
            child = node.next_child_after(after_seq, predicate)
            if child is not None:
                return child
            if node.closed or node.purged:
                return None
            if not self._projector.advance():
                return None

    # ------------------------------------------------------------------
    # expression evaluation
    # ------------------------------------------------------------------

    def _eval(self, expr: q.Expr) -> None:
        if isinstance(expr, q.Sequence):
            for item in expr.items:
                self._eval(item)
        elif isinstance(expr, q.ForExpr):
            for node in self._iterate(expr.source):
                self._env[expr.var] = node
                self._eval(expr.body)
            self._env.pop(expr.var, None)
        elif isinstance(expr, q.LetExpr):
            if isinstance(expr.value, q.Aggregate):
                self._scalars[expr.var] = self._aggregate(expr.value)
            else:
                self._scalars[expr.var] = expr.value.value
            self._eval(expr.body)
            self._scalars.pop(expr.var, None)
        elif isinstance(expr, q.IfExpr):
            if self._condition(expr.condition):
                self._eval(expr.then)
            else:
                self._eval(expr.orelse)
        elif isinstance(expr, q.ElementConstructor):
            self._writer.start_element(expr.tag, self._resolve_attributes(expr))
            self._eval(expr.body)
            self._writer.end_element(expr.tag)
        elif isinstance(expr, q.PathExpr):
            self._output_path(expr)
        elif isinstance(expr, q.AggregateExpr):
            self._writer.text(format_number(self._aggregate(expr.aggregate)))
        elif isinstance(expr, q.SignOff):
            self._signoff(expr)
        elif isinstance(expr, q.TextLiteral):
            self._writer.text(expr.value)
        elif isinstance(expr, q.Empty):
            pass
        else:  # pragma: no cover - exhaustive over the AST
            raise EvaluationError(f"unsupported expression {expr!r}")

    # ------------------------------------------------------------------
    # for-loop iteration
    # ------------------------------------------------------------------

    def _context(self, var: str | None) -> BufferNode:
        if var is None:
            return self._buffer.root
        if var in self._scalars:
            raise EvaluationError(
                f"${var} is a scalar let binding, not a node"
            )
        try:
            return self._env[var]
        except KeyError:
            raise EvaluationError(f"unbound variable ${var}") from None

    def _iterate(self, source: q.PathOperand):
        """Bind-by-bind iteration over a single-step for source."""
        context = self._context(source.var)
        if len(source.path.steps) != 1:
            raise EvaluationError(
                f"for source {source} is not single-step; query was not normalized"
            )
        step = source.path.steps[0]
        if step.axis is Axis.CHILD:
            yield from self._iterate_children(context, step)
        elif step.axis in (Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF):
            yield from self._iterate_descendants(context, step)
        elif step.axis is Axis.SELF:
            if self._node_matches(context, step):
                yield context
        else:
            raise EvaluationError(f"cannot iterate over axis {step.axis.value}")

    def _iterate_children(self, context: BufferNode, step: Step):
        predicate = lambda node: self._node_matches(node, step)  # noqa: E731
        last_seq = 0
        matched = 0
        while True:
            child = self._next_child(context, last_seq, predicate)
            if child is None:
                return
            last_seq = child.seq
            matched += 1
            if step.position is None:
                yield child
            elif matched == step.position:
                yield child
                return

    def _iterate_descendants(self, context: BufferNode, step: Step):
        matched = 0
        if (
            step.axis is Axis.DESCENDANT_OR_SELF
            and not context.is_document
            and self._node_matches(context, step)
        ):
            matched += 1
            if step.position is None:
                yield context
            elif matched == step.position:
                yield context
                return
        stack: list[list] = [[context, 0]]
        while stack:
            top = stack[-1]
            child = self._next_child(top[0], top[1], None)
            if child is None:
                stack.pop()
                continue
            top[1] = child.seq
            if self._node_matches(child, step):
                matched += 1
                if step.position is None:
                    yield child
                elif matched == step.position:
                    yield child
                    return
            if child.is_element and not child.purged:
                stack.append([child, 0])

    @staticmethod
    def _node_matches(node: BufferNode, step: Step) -> bool:
        if node.is_text:
            return step.test.matches_text()
        if node.is_document:
            return step.test.kind == "node"
        return step.test.matches_element(node.tag)

    # ------------------------------------------------------------------
    # conditions
    # ------------------------------------------------------------------

    def _condition(self, condition: q.Condition) -> bool:
        if isinstance(condition, q.Exists):
            return self._exists(condition.operand)
        if isinstance(condition, q.Not):
            return not self._condition(condition.operand)
        if isinstance(condition, q.And):
            return self._condition(condition.left) and self._condition(
                condition.right
            )
        if isinstance(condition, q.Or):
            return self._condition(condition.left) or self._condition(
                condition.right
            )
        if isinstance(condition, q.Comparison):
            return self._comparison(condition)
        raise EvaluationError(f"unsupported condition {condition!r}")

    def _exists(self, operand: q.PathOperand) -> bool:
        """Lazy existence test: probe the buffer after every pulled
        token; stop at the first witness or when the context closes."""
        if operand.var in self._scalars:
            return True  # a bound scalar exists
        context = self._context(operand.var)
        path, attribute = _split_attribute(operand.path)
        if not path.steps and attribute is None:
            return True  # exists $x on a bound variable
        while True:
            if self._exists_in_buffer(context, path.steps, 0, attribute):
                return True
            if context.closed or context.purged:
                return False
            if not self._projector.advance():
                return False

    def _exists_in_buffer(self, node, steps, index, attribute) -> bool:
        if index == len(steps):
            if attribute is None:
                return True
            return not node.is_text and attribute in node.attributes
        step = steps[index]
        candidates = self._step_candidates(node, step)
        for nth, child in enumerate(candidates, start=1):
            if step.position is not None and nth < step.position:
                continue
            if self._exists_in_buffer(child, steps, index + 1, attribute):
                return True
            if step.position is not None:
                return False
        return False

    def _comparison(self, comparison: q.Comparison) -> bool:
        left = self._operand_values(comparison.left)
        if not left:
            return False
        right = self._operand_values(comparison.right)
        op = comparison.op
        for lv in left:
            for rv in right:
                if _compare(op, lv, rv):
                    return True
        return False

    def _operand_values(self, operand) -> list:
        if isinstance(operand, q.Literal):
            return [operand.value]
        if isinstance(operand, q.Aggregate):
            return [self._aggregate(operand)]
        if operand.var in self._scalars:
            return [self._scalars[operand.var]]
        context = self._context(operand.var)
        path, attribute = _split_attribute(operand.path)
        self._ensure_closed(context)
        nodes = self._eval_nodeset(context, path)
        if attribute is None:
            return [node.string_value() for node in nodes]
        values = []
        for node in nodes:
            if not node.is_text and attribute in node.attributes:
                values.append(node.attributes[attribute])
        return values

    def _resolve_attributes(self, expr: q.ElementConstructor):
        """Evaluate attribute value templates against the current env.

        Template results are space-joined string values (the XQuery
        attribute value template rule).
        """
        resolved = []
        for name, value in expr.attributes:
            if isinstance(value, q.Aggregate):
                value = format_number(self._aggregate(value))
            elif isinstance(value, q.PathOperand):
                value = " ".join(str(v) for v in self._operand_values(value))
            resolved.append((name, value))
        return resolved

    def _aggregate(self, aggregate: q.Aggregate) -> float | int:
        """Compute an aggregation over the buffered matches."""
        operand = aggregate.operand
        context = self._context(operand.var)
        path, attribute = _split_attribute(operand.path)
        self._ensure_closed(context)
        nodes = self._eval_nodeset(context, path)
        if attribute is not None:
            values = [
                node.attributes[attribute]
                for node in nodes
                if not node.is_text and attribute in node.attributes
            ]
        elif aggregate.func == "count":
            return len(nodes)
        else:
            values = [node.string_value() for node in nodes]
        return compute_aggregate(aggregate.func, values)

    # ------------------------------------------------------------------
    # buffer-local path evaluation
    # ------------------------------------------------------------------

    def _step_candidates(self, node: BufferNode, step: Step):
        if node.is_text:
            # Text nodes have no children, but the self-including axes
            # must still reach the node itself.
            if step.axis in (Axis.SELF, Axis.DESCENDANT_OR_SELF):
                return iter([node] if self._node_matches(node, step) else [])
            return iter(())
        if step.axis is Axis.CHILD:
            matched = (c for c in node.children if self._node_matches(c, step))
        elif step.axis is Axis.DESCENDANT:
            matched = (
                c for c in self._descendants(node) if self._node_matches(c, step)
            )
        elif step.axis is Axis.DESCENDANT_OR_SELF:
            def _dos():
                if not node.is_document and self._node_matches(node, step):
                    yield node
                for c in self._descendants(node):
                    if self._node_matches(c, step):
                        yield c

            matched = _dos()
        elif step.axis is Axis.SELF:
            matched = iter([node] if self._node_matches(node, step) else [])
        else:
            raise EvaluationError(f"unsupported axis {step.axis.value} in buffer path")
        return matched

    @staticmethod
    def _descendants(node: BufferNode):
        stack = list(reversed(node.children))
        while stack:
            child = stack.pop()
            yield child
            if child.is_element:
                stack.extend(reversed(child.children))

    def _eval_frontier(self, context: BufferNode, path: Path) -> list[BufferNode]:
        """All match derivations of *path* from *context* (repeats kept)."""
        frontier = [context]
        for step in path.steps:
            next_frontier: list[BufferNode] = []
            for node in frontier:
                candidates = self._step_candidates(node, step)
                if step.position is not None:
                    for nth, child in enumerate(candidates, start=1):
                        if nth == step.position:
                            next_frontier.append(child)
                            break
                else:
                    next_frontier.extend(candidates)
            frontier = next_frontier
            if not frontier:
                break
        return frontier

    def _eval_nodeset(self, context: BufferNode, path: Path) -> list[BufferNode]:
        """Duplicate-free document-order evaluation of *path*."""
        seen: set[int] = set()
        unique: list[BufferNode] = []
        for node in self._eval_frontier(context, path):
            if id(node) not in seen:
                seen.add(id(node))
                unique.append(node)
        unique.sort(key=lambda node: node.seq)
        return unique

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def _output_path(self, expr: q.PathExpr) -> None:
        if expr.var in self._scalars:
            value = self._scalars[expr.var]
            if isinstance(value, str):
                self._writer.text(value)
            else:
                self._writer.text(format_number(value))
            return
        context = self._context(expr.var)
        path, attribute = _split_attribute(expr.path)
        self._ensure_closed(context)
        nodes = self._eval_nodeset(context, path)
        if attribute is not None:
            for node in nodes:
                if not node.is_text and attribute in node.attributes:
                    self._writer.text(node.attributes[attribute])
            return
        for node in nodes:
            self._write_buffer_node(node)

    def _write_buffer_node(self, node: BufferNode) -> None:
        """Serialize a buffered subtree (iterative: depth-safe)."""
        stack: list = [node]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                self._writer.end_element(item)
            elif item.is_text:
                self._writer.text(item.text or "")
            elif item.is_document:
                stack.extend(reversed(item.children))
            else:
                self._writer.start_element(
                    item.tag, sorted(item.attributes.items())
                )
                stack.append(item.tag)
                stack.extend(reversed(item.children))

    # ------------------------------------------------------------------
    # signOff + garbage collection
    # ------------------------------------------------------------------

    def _signoff(self, statement: q.SignOff) -> None:
        if not self._gc_enabled:
            return
        context = self._context(statement.var)
        # Pull the context to its end tag first: all role instances the
        # matcher will ever assign below it are then in the buffer, so
        # the removal below is exhaustive (DESIGN.md §3.4).
        self._ensure_closed(context)
        if context.purged:
            return
        for node in self._eval_frontier(context, statement.path):
            self._buffer.remove_role(node, statement.role)


def _split_attribute(path: Path) -> tuple[Path, str | None]:
    """Split a trailing ``@name`` step off *path*."""
    if path.steps and path.steps[-1].axis is Axis.ATTRIBUTE:
        name = path.steps[-1].test.name
        return Path(path.steps[:-1], path.absolute), name
    return path, None


def compute_aggregate(func: str, values: list) -> float | int:
    """Fold *values* (strings or numbers) under an aggregation function.

    ``count`` counts items; the numeric aggregates coerce each value to
    float and return 0 on an empty sequence (the convention of ``sum``;
    ``min``/``max``/``avg`` over nothing also yield 0 here rather than
    an error, which keeps streaming evaluation total).
    """
    if func == "count":
        return len(values)
    numbers = []
    for value in values:
        try:
            numbers.append(float(value))
        except (TypeError, ValueError):
            continue
    if not numbers:
        return 0
    if func == "sum":
        return sum(numbers)
    if func == "avg":
        return sum(numbers) / len(numbers)
    if func == "min":
        return min(numbers)
    if func == "max":
        return max(numbers)
    raise EvaluationError(f"unknown aggregation function {func!r}")


def format_number(value: float | int) -> str:
    """Serialize a number the XQuery way: no trailing ``.0``."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _compare(op: str, left, right) -> bool:
    """General-comparison of two atomic values.

    Numeric comparison when both values are numbers (or strings that
    parse as numbers), string comparison otherwise — the untyped-data
    convention streaming engines apply without a schema.
    """
    try:
        lnum = float(left)
        rnum = float(right)
    except (TypeError, ValueError):
        lstr, rstr = str(left), str(right)
        if op == "=":
            return lstr == rstr
        if op == "!=":
            return lstr != rstr
        if op == "<":
            return lstr < rstr
        if op == "<=":
            return lstr <= rstr
        if op == ">":
            return lstr > rstr
        if op == ">=":
            return lstr >= rstr
        raise EvaluationError(f"unknown comparison operator {op!r}")
    if op == "=":
        return lnum == rnum
    if op == "!=":
        return lnum != rnum
    if op == "<":
        return lnum < rnum
    if op == "<=":
        return lnum <= rnum
    if op == ">":
        return lnum > rnum
    if op == ">=":
        return lnum >= rnum
    raise EvaluationError(f"unknown comparison operator {op!r}")


def equality_key(value):
    """The hash key under which ``_compare("=", a, b)`` is key equality.

    ``_compare`` compares numerically when both values parse as floats
    and as strings otherwise.  A string that parses and one that does
    not are never equal as strings either, so one dict can hold both
    key kinds: the float for a parseable value (``"7"``, ``" 7"``,
    ``"7.0"`` and ``"7e0"`` share one key) and the string itself for
    the rest.  NaN never compares equal, so it gets no key (``None``).
    """
    try:
        number = float(value)
    except (TypeError, ValueError):
        return str(value)
    if number != number:
        return None
    return number
