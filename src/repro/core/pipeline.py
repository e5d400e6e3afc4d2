"""The one place a plan's runtime chain is assembled.

The paper's runtime is one chain — stream pre-projector → buffer
manager → pull evaluator (Figure 2).  Each stage exists at three
kernel tiers, each the byte-identical differential oracle of the tier
above it:

* ``"generated"`` (default) — the fused lexer front-end (Kernel C)
  under the generated evaluator (Kernel B), DESIGN.md §12 and §15;
* ``"tables"`` — the lazy-DFA
  :class:`~repro.core.projector.CompiledStreamProjector` under the
  operator-program VM, :class:`~repro.core.program.CompiledEvaluator`;
* ``"interpreted"`` — the paper's NFA
  :class:`~repro.core.projector.StreamProjector` under the
  :class:`~repro.core.evaluator.PullEvaluator`.

``GCXEngine.run``, ``StreamSession`` (and its restore) and the
multiplexer's ``StreamSubscriber`` all build their chain with
:func:`build_pipeline`; no other module under ``src/`` constructs a
projector or an evaluator (a test pins that down).
"""

from __future__ import annotations

from repro.core.codegen import CodegenEvaluator, GeneratedStreamProjector
from repro.core.evaluator import PullEvaluator
from repro.core.program import CompiledEvaluator
from repro.core.projector import CompiledStreamProjector, StreamProjector

__all__ = ["DEFAULT_TIER", "TIERS", "build_pipeline", "check_tier"]

#: The kernel tiers, fastest first.
TIERS = ("generated", "tables", "interpreted")

#: The tier every engine, session and subscriber runs unless told
#: otherwise.
DEFAULT_TIER = "generated"


def check_tier(tier: str) -> str:
    """Return *tier* if it names a kernel tier.

    Raises:
        ValueError: *tier* is not one of :data:`TIERS`.
    """
    if tier not in TIERS:
        raise ValueError(
            f"unknown kernel tier {tier!r}; pick one of {', '.join(TIERS)}"
        )
    return tier


def build_pipeline(plan, lexer, buffer, writer, *, tier: str, gc_enabled: bool):
    """Build the ``(projector, evaluator)`` of one run of *plan*: the
    evaluator pulls from the projector, which pulls from *lexer* into
    *buffer*.

    * projector — ``"generated"`` takes Kernel C when the plan has one
      and *lexer* has the batch surface (``project_into``: the bytes
      lexer), else the table kernel; ``"tables"`` the table kernel;
      ``"interpreted"`` the NFA interpreter, unless *lexer* has no
      token surface (``next_token``: the multiplexer's event replay),
      which gets the table kernel.  A plan without a DFA always gets
      the NFA interpreter.
    * evaluator — ``"generated"`` takes Kernel B when the plan has one,
      else the VM; ``"tables"`` the VM; ``"interpreted"`` the pull
      evaluator.  A plan without an operator program always gets the
      pull evaluator.

    Raises:
        ValueError: *tier* is not one of :data:`TIERS`.
    """
    check_tier(tier)
    kernels = plan.kernels if tier == "generated" else None
    if plan.dfa is None or (
        tier == "interpreted" and hasattr(lexer, "next_token")
    ):
        projector = StreamProjector(lexer, plan.matcher, buffer)
    elif (
        kernels is not None
        and kernels.lexer is not None
        and hasattr(lexer, "project_into")
    ):
        projector = GeneratedStreamProjector(
            kernels.lexer, lexer, plan.dfa, buffer
        )
    else:
        projector = CompiledStreamProjector(lexer, plan.dfa, buffer)
    if plan.program is None or tier == "interpreted":
        evaluator = PullEvaluator(
            plan.rewritten, projector, buffer, writer, gc_enabled
        )
    elif kernels is not None and kernels.evaluator is not None:
        evaluator = CodegenEvaluator(
            kernels.evaluator, plan.program, projector, buffer, writer,
            gc_enabled,
        )
    else:
        evaluator = CompiledEvaluator(
            plan.program, projector, buffer, writer, gc_enabled
        )
    return projector, evaluator
