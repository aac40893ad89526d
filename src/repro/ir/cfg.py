"""Basic blocks and control-flow graphs for IR methods.

A :class:`BasicBlock` is a labelled list of instructions ending in a
terminator.  The :class:`ControlFlowGraph` owns the blocks of one method and
answers successor/predecessor and ordering queries used by the data-flow
analyses (intra-allocation filter, lockset, if-guard dominance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .instructions import Goto, If, Instruction, Return, Throw


@dataclass
class BasicBlock:
    """A straight-line sequence of instructions with a unique label."""

    label: str
    instructions: List[Instruction] = field(default_factory=list)

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator():
            return self.instructions[-1]
        return None

    def successor_labels(self) -> Tuple[str, ...]:
        term = self.terminator
        if isinstance(term, Goto):
            return (term.label,)
        if isinstance(term, If):
            return (term.then_label, term.else_label)
        if isinstance(term, (Return, Throw)):
            return ()
        return ()

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __str__(self) -> str:
        body = "\n".join(f"    {i}" for i in self.instructions)
        return f"  {self.label}:\n{body}"


class ControlFlowGraph:
    """The control-flow graph of a single method."""

    def __init__(self, entry_label: str = "entry") -> None:
        self.entry_label = entry_label
        self.blocks: Dict[str, BasicBlock] = {}
        self._order: List[str] = []

    # -- construction -------------------------------------------------------

    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.label in self.blocks:
            raise ValueError(f"duplicate block label {block.label!r}")
        self.blocks[block.label] = block
        self._order.append(block.label)
        return block

    def new_block(self, label: str) -> BasicBlock:
        return self.add_block(BasicBlock(label))

    # -- queries ------------------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[self.entry_label]

    def block_order(self) -> List[BasicBlock]:
        """Blocks in insertion order (the order lowering emitted them)."""
        return [self.blocks[label] for label in self._order]

    def successors(self, label: str) -> Tuple[str, ...]:
        return self.blocks[label].successor_labels()

    def predecessors(self, label: str) -> List[str]:
        return [
            b.label for b in self.blocks.values() if label in b.successor_labels()
        ]

    def reverse_postorder(self) -> List[BasicBlock]:
        """Blocks in reverse postorder from the entry (forward dataflow order)."""
        seen: Set[str] = set()
        post: List[str] = []

        def visit(label: str) -> None:
            if label in seen or label not in self.blocks:
                return
            seen.add(label)
            for succ in self.successors(label):
                visit(succ)
            post.append(label)

        visit(self.entry_label)
        return [self.blocks[label] for label in reversed(post)]

    def instructions(self) -> Iterator[Instruction]:
        """All instructions, in insertion (roughly source) order."""
        for block in self.block_order():
            yield from block.instructions

    def reachable_labels(self) -> Set[str]:
        return {b.label for b in self.reverse_postorder()}

    # -- validation helpers --------------------------------------------------

    def check(self) -> List[str]:
        """Return a list of structural problems (empty when well-formed)."""
        problems: List[str] = []
        if self.entry_label not in self.blocks:
            problems.append(f"missing entry block {self.entry_label!r}")
        for block in self.blocks.values():
            if block.terminator is None:
                problems.append(f"block {block.label!r} lacks a terminator")
            for i, instr in enumerate(block.instructions[:-1]):
                if instr.is_terminator():
                    problems.append(
                        f"block {block.label!r} has a terminator at position {i}"
                    )
            for succ in block.successor_labels():
                if succ not in self.blocks:
                    problems.append(
                        f"block {block.label!r} jumps to unknown label {succ!r}"
                    )
        return problems
