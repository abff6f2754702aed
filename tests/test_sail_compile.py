"""Differential equivalence: the memoised ISA model vs the bare interpreter.

``IsaModel`` serves Sail stepping from per-model caches: initial states
per opcode, ``run_to_outcome`` results per state, ``resume`` results per
(state, value), and footprints per (state, cia).  The exploration engine
leans on those caches for every interleaving, so they must be
*observationally transparent*.  These tests drive every instruction spec
both through a shared, warmed ``IsaModel`` and through a reference path
that re-parses the pseudocode and steps a fresh ``Interp`` with no cache
in between, and require the same outcome sequence under every injected
value stream, the same pending-state resume and restart behaviour, the
same footprints and -- through the concurrency model -- the same litmus
verdicts and exploration state counts as a fresh model.

The test names date from an earlier second Sail execution engine that
was checked against the interpreter here; each keeps its role as a
check on the one stepping path that remains.
"""

import pytest

from repro.isa.model import IsaModel
from repro.sail.analysis import FootprintAnalysis
from repro.sail.interp import Interp, initial_state, resume
from repro.sail.outcomes import (
    Barrier,
    Done,
    Internal,
    ReadMem,
    ReadReg,
    WriteMem,
    WriteReg,
)
from repro.sail.parser import parse_execute_clause
from repro.sail.values import Bits
from repro.testgen.sequential import generate_tests

MODEL = IsaModel()

SPEC_NAMES = sorted(s.name for s in MODEL.table.all_specs())

#: Safety valve: no instruction in the corpus takes anywhere near this
#: many outcomes; hitting it means a stepping path diverged into a loop.
MAX_STEPS = 4096

#: Pseudo-registers that footprints leave out.
PSEUDO_REGS = ("CIA", "NIA")


class ReferenceIsa:
    """Sail stepping with no memo layer: fresh parse, fresh interpreter.

    Speaks the same ``initial_state`` / ``run_to_outcome`` / ``resume``
    protocol as ``IsaModel`` so one driver serves both.
    """

    def __init__(self, model):
        self.registry = model.registry
        self._view = model.registry.parser_view()
        self.interp = Interp(model.registry)
        self.analysis = FootprintAnalysis(self.interp)

    def initial_state(self, instr):
        clause = parse_execute_clause(instr.spec.pseudocode, self._view)
        return initial_state(clause.body, instr.spec.field_bits(instr.word))

    def run_to_outcome(self, state):
        return self.interp.run_to_outcome(state)

    def resume(self, state, value):
        return resume(state, value)

    def footprint(self, state, cia=None):
        return self.analysis.analyze(state, cia)


def _reference():
    """A reference path with empty caches (one per test)."""
    return ReferenceIsa(MODEL)


def _salted(width, salt, position):
    """A deterministic, width-correct injected value for step ``position``."""
    raw = (0x9E3779B97F4A7C15 * (salt + 1) + 0x100003 * (position + 1))
    return Bits.from_int(raw & ((1 << width) - 1), width)


def _fingerprint(out):
    """An outcome's observable content, with the opaque state dropped."""
    if isinstance(out, ReadMem):
        return ("ReadMem", out.kind, out.addr, out.size)
    if isinstance(out, WriteMem):
        return ("WriteMem", out.kind, out.addr, out.size, out.value)
    if isinstance(out, Barrier):
        return ("Barrier", out.kind)
    if isinstance(out, ReadReg):
        return ("ReadReg", out.slice)
    if isinstance(out, WriteReg):
        return ("WriteReg", out.slice, out.value)
    if isinstance(out, Internal):
        return ("Internal",)
    if isinstance(out, Done):
        return ("Done",)
    raise AssertionError(f"unknown outcome {out!r}")


def _reply(out, salt, position, sc_success):
    """The value the harness injects to resume ``out``."""
    if isinstance(out, ReadReg):
        return _salted(out.slice.width, salt, position)
    if isinstance(out, ReadMem):
        return _salted(out.size * 8, salt, position)
    if isinstance(out, WriteMem) and out.kind == "conditional":
        return Bits.from_int(1 if sc_success else 0, 1)
    return None


def _drive(isa, word, salt, sc_success=True):
    """Run one instruction to Done, feeding a deterministic value stream.

    Returns the full fingerprinted outcome trace.  Both paths see the
    same injected values (the stream depends only on outcome shape and
    step index), so equal traces mean equal observable behaviour.
    """
    instr = MODEL.decode_or_raise(word)
    state = isa.initial_state(instr)
    trace = []
    out = isa.run_to_outcome(state)
    for position in range(MAX_STEPS):
        trace.append(_fingerprint(out))
        if isinstance(out, Done):
            return trace
        resumed = isa.resume(out.state, _reply(out, salt, position, sc_success))
        out = isa.run_to_outcome(resumed)
    raise AssertionError(f"word 0x{word:08x} took more than {MAX_STEPS} outcomes")


def _words_for(spec_name, count=3):
    spec = MODEL.table.by_name(spec_name)
    return [t.word for t in generate_tests(MODEL, spec, count=count, seed=2026)]


# ----------------------------------------------------------------------
# Outcome-trace equivalence over the whole instruction corpus
# ----------------------------------------------------------------------


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
def test_outcome_traces_equal(spec_name):
    """Every spec, several encodings and value streams: identical traces.

    The memoised model is driven twice, so the second pass is served from
    warm caches; both passes must match the uncached reference.
    """
    ref = _reference()
    for word in _words_for(spec_name):
        for salt in (0, 1):
            trace_r = _drive(ref, word, salt)
            trace_m = _drive(MODEL, word, salt)
            assert trace_m == trace_r, (
                f"{spec_name} word=0x{word:08x} salt={salt}: "
                f"memoised {trace_m} != reference {trace_r}"
            )
            assert _drive(MODEL, word, salt) == trace_r
            # Store-conditionals have a second externally chosen path:
            # the reservation can fail.  Drive it on both paths too.
            if any(f[0] == "WriteMem" and f[1] == "conditional" for f in trace_r):
                fail_r = _drive(ref, word, salt, sc_success=False)
                fail_m = _drive(MODEL, word, salt, sc_success=False)
                assert fail_m == fail_r
                assert fail_r != trace_r  # the flag is actually observed


# ----------------------------------------------------------------------
# Pending-state protocol: resume, restart, memo identity
# ----------------------------------------------------------------------


def _first_pending(isa, word, predicate):
    """Drive until ``predicate(outcome)`` holds; return that outcome."""
    state = isa.initial_state(MODEL.decode_or_raise(word))
    out = isa.run_to_outcome(state)
    for position in range(MAX_STEPS):
        if predicate(out):
            return out
        assert not isinstance(out, Done)
        resumed = isa.resume(out.state, _reply(out, 0, position, True))
        out = isa.run_to_outcome(resumed)
    raise AssertionError("predicate never matched")


def _tail(isa, pend, value):
    """Fingerprinted trace after resuming ``pend`` with ``value``."""
    out = isa.run_to_outcome(isa.resume(pend.state, value))
    tail = []
    for position in range(MAX_STEPS):
        tail.append(_fingerprint(out))
        if isinstance(out, Done):
            return tail
        resumed = isa.resume(out.state, _reply(out, 0, position, True))
        out = isa.run_to_outcome(resumed)
    raise AssertionError(f"resume took more than {MAX_STEPS} outcomes")


def test_pending_state_supports_restart():
    """One pending snapshot can be resumed with different values.

    The thread model restarts speculative reads by re-resuming an old
    pending state with a new value; the memoised model must treat the
    pending state as an immutable snapshot, not a consumed continuation,
    and must not hand back the tail of an earlier value.
    """
    word = _words_for("Lwz", count=1)[0]
    ref = _reference()
    pend_r = _first_pending(ref, word, lambda o: isinstance(o, ReadMem))
    pend_m = _first_pending(MODEL, word, lambda o: isinstance(o, ReadMem))
    assert _fingerprint(pend_m) == _fingerprint(pend_r)
    values = [Bits.from_int(v, pend_r.size * 8) for v in (0, 1, 0xDEADBEEF)]
    tails_r = [_tail(ref, pend_r, value) for value in values]
    assert len(set(map(tuple, tails_r))) == len(values)  # the value is observed
    for _ in range(2):
        for value, tail_r in zip(values, tails_r):
            assert _tail(MODEL, pend_m, value) == tail_r, value


def test_compiled_states_are_memo_identical():
    """resume/run_to_outcome return the *same object* for the same inputs.

    The exploration engine's state keys and outcome memos hit by
    identity; a model that rebuilt equal-but-distinct states would
    silently destroy the memoisation wins.
    """
    for spec_name in ("Lwz", "Stw", "Add", "Sync"):
        word = _words_for(spec_name, count=1)[0]
        instr = MODEL.decode_or_raise(word)
        s0 = MODEL.initial_state(instr)
        assert MODEL.initial_state(instr) is s0
        out = MODEL.run_to_outcome(s0)
        assert MODEL.run_to_outcome(s0) is out
        if not isinstance(out, Done):
            value = _reply(out, 0, 0, True)
            r1 = MODEL.resume(out.state, value)
            assert MODEL.resume(out.state, value) is r1
            assert hash(r1) == hash(MODEL.resume(out.state, value))


# ----------------------------------------------------------------------
# Footprints: memoised analysis vs a fresh one, and vs executed traces
# ----------------------------------------------------------------------


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
def test_static_footprints_equal(spec_name):
    """The model's static footprint equals a fresh analysis and covers
    everything a concrete execution of the instruction does."""
    ref = _reference()
    for word in _words_for(spec_name, count=2):
        instr = MODEL.decode_or_raise(word)
        fp_m = MODEL.static_footprint(instr)
        fp_r = ref.footprint(ref.initial_state(instr))
        assert fp_m == fp_r, f"{spec_name} word=0x{word:08x}"
        for salt in (0, 1):
            for step in _drive(MODEL, word, salt):
                kind = step[0]
                if kind == "ReadReg" and step[1].reg not in PSEUDO_REGS:
                    assert step[1] in fp_m.regs_in, (spec_name, step)
                elif kind == "WriteReg" and step[1].reg not in PSEUDO_REGS:
                    assert step[1] in fp_m.regs_out, (spec_name, step)
                elif kind == "Barrier":
                    assert step[1] in fp_m.barriers, (spec_name, step)
                elif kind == "ReadMem":
                    assert fp_m.is_load, (spec_name, step)
                elif kind == "WriteMem":
                    assert fp_m.is_store, (spec_name, step)


def test_partial_footprints_equal():
    """Mid-execution footprints agree between the model and a fresh analysis.

    A value-pending state cannot be analysed (the interpreter refuses to
    step it), so the partially executed state under test is the one
    *after* resuming the first register read -- some operands resolved,
    the memory access still ahead.
    """
    ref = _reference()
    for spec_name in ("Lwz", "Lwzx", "Stwx", "Lwarx"):
        word = _words_for(spec_name, count=1)[0]
        mids = []
        for isa in (MODEL, ref):
            pend = _first_pending(isa, word, lambda o: isinstance(o, ReadReg))
            mids.append(isa.resume(pend.state, _reply(pend, 0, 0, True)))
        mid_m, mid_r = mids
        fp_m = MODEL.footprint(mid_m)
        assert fp_m == ref.footprint(mid_r), spec_name
        assert fp_m.is_memory_access, spec_name


# ----------------------------------------------------------------------
# Whole-oracle equivalence: litmus verdicts and exploration shape
# ----------------------------------------------------------------------

#: The representative E6 family plus the reservation tests (the two
#: instruction classes with externally chosen resume values).
CORPUS_SUBSET = [
    "MP",
    "MP+syncs",
    "SB+syncs",
    "R",
    "WRC+sync+addr",
    "ATOM-base",
    "ATOM-intervene",
]


@pytest.mark.parametrize("test_name", CORPUS_SUBSET)
def test_litmus_verdicts_and_counts_identical(test_name):
    """A warm shared model and a fresh model explore identically."""
    from repro.litmus.library import by_name
    from repro.litmus.runner import run_litmus

    test = by_name(test_name).parse()
    result_w = run_litmus(test, MODEL)
    result_f = run_litmus(test, IsaModel())
    assert result_w.status == result_f.status
    assert result_w.outcomes == result_f.outcomes
    stats_w = result_w.exploration.stats
    stats_f = result_f.exploration.stats
    assert (
        stats_w.states_visited,
        stats_w.transitions_taken,
        stats_w.final_states,
        stats_w.unique_states,
    ) == (
        stats_f.states_visited,
        stats_f.transitions_taken,
        stats_f.final_states,
        stats_f.unique_states,
    ), test_name
