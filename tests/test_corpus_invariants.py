"""Whole-corpus invariants of the instruction pseudocode.

Section 2.1.3 of the paper: after rewriting self-reads through local
variables, "for most instructions the register-read and register-write
footprints can be calculated statically ... and [the instruction] will
dynamically read and write exactly once to each element of those".  These
tests enforce the discipline mechanically over every instruction, with
worst-case register aliasing (all operand registers equal) -- the scenario
that exposed a real read-after-own-write bug in the divide family's
overflow checks during development.
"""

import pytest

from repro.isa.model import default_model
from repro.sail.interp import LiftedBranch, resume
from repro.sail.outcomes import (
    Barrier,
    Done,
    ReadMem,
    ReadReg,
    WriteMem,
    WriteReg,
)
from repro.sail.values import Bits, FALSE, TRUE

MODEL = default_model()
PSEUDO = ("CIA", "NIA")


class PathExplosion(Exception):
    """The aliased walk forked too much (e.g. popcntb's 64 bit tests)."""


def _aliased_instruction(spec):
    """Encode the instruction with register operands as equal as validity
    allows (worst-case aliasing, falling back for invalid update forms)."""
    fields = {}
    for field in spec.operand_fields():
        fields[field.name] = 1 if field.name in ("RT", "RA", "RB", "RS") else 0
    if "SPR" in fields:
        fields["SPR"] = (1 & 0x1F) << 5  # XER
    if "FXM" in fields:
        fields["FXM"] = 1
    if spec.is_invalid_form(fields) and "RT" in fields:
        fields["RT"] = 2  # update-form loads forbid RA == RT
    if spec.is_invalid_form(fields):
        return None
    word = spec.encode(fields)
    decoded = MODEL.decode(word)
    if decoded is None or decoded.spec.name != spec.name:
        return None
    return decoded


def _walk_paths(instruction):
    """Yield (reads, writes) slice traces for every execution path.

    The walk drives the interpreter's lifted-forking mode directly.
    """
    stack = [(MODEL.initial_state(instruction), (), ())]
    steps = 0
    while stack:
        state, reads, writes = stack.pop()
        steps += 1
        if steps >= 5000:
            raise PathExplosion(instruction.name)
        try:
            outcome = MODEL.interp.run_to_outcome(state, fork_on_lifted=True)
        except LiftedBranch as fork:
            stack.extend((s, reads, writes) for s in fork.states)
            continue
        if isinstance(outcome, Done):
            yield reads, writes
        elif isinstance(outcome, ReadReg):
            record = reads
            if outcome.slice.reg not in PSEUDO:
                record = reads + (outcome.slice,)
            stack.append(
                (
                    resume(outcome.state, Bits.unknown(outcome.slice.width)),
                    record,
                    writes,
                )
            )
        elif isinstance(outcome, WriteReg):
            record = writes
            if outcome.slice.reg not in PSEUDO:
                record = writes + (outcome.slice,)
            stack.append((resume(outcome.state, None), reads, record))
        elif isinstance(outcome, ReadMem):
            stack.append(
                (
                    resume(outcome.state, Bits.unknown(8 * outcome.size)),
                    reads,
                    writes,
                )
            )
        elif isinstance(outcome, WriteMem):
            if outcome.kind == "conditional":
                stack.append((resume(outcome.state, TRUE), reads, writes))
                stack.append((resume(outcome.state, FALSE), reads, writes))
            else:
                stack.append((resume(outcome.state, None), reads, writes))
        elif isinstance(outcome, Barrier):
            stack.append((resume(outcome.state, None), reads, writes))
        else:  # pragma: no cover
            raise AssertionError(f"unexpected outcome {outcome!r}")


SPEC_NAMES = sorted(s.name for s in MODEL.table.all_specs())


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
def test_no_read_after_own_write(spec_name):
    """No path reads a register slice the instruction already wrote."""
    instruction = _aliased_instruction(MODEL.table.by_name(spec_name))
    if instruction is None:
        pytest.skip("aliased operands not encodable")
    try:
        for _trace in _paths_with_prefix_check(instruction):
            pass  # assertions inside the generator
    except PathExplosion:
        pytest.skip("per-bit forking explodes the aliased walk (popcntb)")


def _paths_with_prefix_check(instruction):
    stack = [(MODEL.initial_state(instruction), ())]
    steps = 0
    while stack:
        state, written = stack.pop()
        steps += 1
        if steps >= 5000:
            raise PathExplosion(instruction.name)
        try:
            outcome = MODEL.interp.run_to_outcome(state, fork_on_lifted=True)
        except LiftedBranch as fork:
            stack.extend((s, written) for s in fork.states)
            continue
        if isinstance(outcome, Done):
            yield written
        elif isinstance(outcome, ReadReg):
            if outcome.slice.reg not in PSEUDO:
                overlapping = [w for w in written if outcome.slice.overlaps(w)]
                assert not overlapping, (
                    f"{instruction.name} reads {outcome.slice} after "
                    f"writing {overlapping}"
                )
            stack.append(
                (resume(outcome.state, Bits.unknown(outcome.slice.width)),
                 written)
            )
        elif isinstance(outcome, WriteReg):
            new = written
            if outcome.slice.reg not in PSEUDO:
                new = written + (outcome.slice,)
            stack.append((resume(outcome.state, None), new))
        elif isinstance(outcome, ReadMem):
            stack.append(
                (resume(outcome.state, Bits.unknown(8 * outcome.size)),
                 written)
            )
        elif isinstance(outcome, WriteMem):
            if outcome.kind == "conditional":
                stack.append((resume(outcome.state, TRUE), written))
                stack.append((resume(outcome.state, FALSE), written))
            else:
                stack.append((resume(outcome.state, None), written))
        elif isinstance(outcome, Barrier):
            stack.append((resume(outcome.state, None), written))


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
def test_writes_at_most_once_per_slice(spec_name):
    """On every path, each register slice is written at most once."""
    instruction = _aliased_instruction(MODEL.table.by_name(spec_name))
    if instruction is None:
        pytest.skip("aliased operands not encodable")
    try:
        paths = list(_walk_paths(instruction))
    except PathExplosion:
        pytest.skip("per-bit forking explodes the aliased walk (popcntb)")
    for _reads, writes in paths:
        for i, a in enumerate(writes):
            for b in writes[i + 1 :]:
                assert not a.overlaps(b), (
                    f"{spec_name}: writes {a} and {b} overlap on one path"
                )


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
def test_static_footprint_covers_dynamic(spec_name):
    """Every dynamic read/write slice is inside the static footprint."""
    instruction = _aliased_instruction(MODEL.table.by_name(spec_name))
    if instruction is None:
        pytest.skip("aliased operands not encodable")
    try:
        static = MODEL.static_footprint(instruction, cia=0x1000)
        paths = list(_walk_paths(instruction))
    except PathExplosion:
        pytest.skip("per-bit forking explodes the aliased walk (popcntb)")
    for reads, writes in paths:
        for read in reads:
            assert any(s.contains(read) or s.overlaps(read)
                       for s in static.regs_in), (
                f"{spec_name}: dynamic read {read} outside static regs_in"
            )
        for write in writes:
            assert any(s.contains(write) or s.overlaps(write)
                       for s in static.regs_out), (
                f"{spec_name}: dynamic write {write} outside static regs_out"
            )
