"""Sail: the instruction description language of the paper (section 3).

Public surface:

* :mod:`repro.sail.values` -- lifted bitvectors (``Bits``).
* :mod:`repro.sail.ast` / :mod:`repro.sail.parser` -- concrete syntax.
* :mod:`repro.sail.interp` -- the outcome-producing interpreter.
* :mod:`repro.sail.analysis` -- exhaustive footprint analysis.
* :mod:`repro.sail.outcomes` -- the ISA/concurrency interface types.
"""

from .values import Bits
from .outcomes import (
    Barrier,
    Done,
    Internal,
    Outcome,
    ReadMem,
    ReadReg,
    RegSlice,
    WriteMem,
    WriteReg,
)
from .interp import Interp, InterpState, initial_state, resume
from .analysis import Footprint, FootprintAnalysis
from .parser import parse_execute_clause, parse_statement

__all__ = [
    "Bits",
    "Barrier",
    "Done",
    "Internal",
    "Outcome",
    "ReadMem",
    "ReadReg",
    "RegSlice",
    "WriteMem",
    "WriteReg",
    "Interp",
    "InterpState",
    "initial_state",
    "resume",
    "Footprint",
    "FootprintAnalysis",
    "parse_execute_clause",
    "parse_statement",
]
