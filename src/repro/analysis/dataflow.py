"""Generic intra-procedural forward data-flow framework.

Clients (the lockset analysis and the IG/IA/MA filters) supply a transfer
function over immutable states plus a join; the engine iterates blocks in
reverse postorder to a fixpoint and exposes the state *before* every
instruction, keyed by uid.  An optional ``branch(if_instr, state,
to_then)`` hook refines the state flowing along each edge of an ``If``
(the null-check guard analysis is edge-sensitive).

States must be hashable/immutable (frozensets, tuples); the engine treats
``None`` as bottom (unreachable).
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Optional, TypeVar

from ..ir import If, Instruction, Method

S = TypeVar("S")


class ForwardDataflow(Generic[S]):
    """Forward may/must analysis over one method's CFG."""

    def __init__(
        self,
        method: Method,
        entry_state: S,
        transfer: Callable[[Instruction, S], S],
        join: Callable[[S, S], S],
        branch: Optional[Callable[[If, S, bool], S]] = None,
    ) -> None:
        self.method = method
        self.entry_state = entry_state
        self.transfer = transfer
        self.join = join
        self.branch = branch

    def run(self) -> Dict[int, S]:
        """Return the in-state of every instruction, keyed by uid."""
        cfg = self.method.cfg
        if not cfg.blocks:
            return {}
        block_in: Dict[str, Optional[S]] = {label: None for label in cfg.blocks}
        block_in[cfg.entry_label] = self.entry_state

        changed = True
        while changed:
            changed = False
            for block in cfg.reverse_postorder():
                state = block_in[block.label]
                if state is None:
                    continue
                for instr in block.instructions:
                    state = self.transfer(instr, state)
                term = block.terminator
                refine = self.branch if isinstance(term, If) else None
                for i, succ in enumerate(block.successor_labels()):
                    out = state if refine is None else refine(term, state, i == 0)
                    current = block_in.get(succ)
                    merged = out if current is None else self.join(current, out)
                    if merged != current:
                        block_in[succ] = merged
                        changed = True

        instr_in: Dict[int, S] = {}
        for block in cfg.reverse_postorder():
            state = block_in[block.label]
            if state is None:
                continue
            for instr in block.instructions:
                instr_in[instr.uid] = state
                state = self.transfer(instr, state)
        return instr_in


def run_forward(
    method: Method,
    entry_state: S,
    transfer: Callable[[Instruction, S], S],
    join: Callable[[S, S], S],
    branch: Optional[Callable[[If, S, bool], S]] = None,
) -> Dict[int, S]:
    """One-call helper around :class:`ForwardDataflow`."""
    return ForwardDataflow(method, entry_state, transfer, join, branch).run()
