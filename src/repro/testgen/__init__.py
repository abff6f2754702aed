"""Sequential and concurrent test generation plus validation (section 7)."""

from .axiomatic import AxiomaticVerdict, decide
from .compare import ComparisonResult, SuiteReport, run_differential, run_suite
from .concurrent import OracleCheck, OracleReport, check_suite, expectation
from .sequential import SequentialTest, generate_suite, generate_tests

__all__ = [
    "AxiomaticVerdict",
    "ComparisonResult",
    "OracleCheck",
    "OracleReport",
    "SequentialTest",
    "SuiteReport",
    "check_suite",
    "decide",
    "expectation",
    "generate_suite",
    "generate_tests",
    "run_differential",
    "run_suite",
]
