"""Exception hierarchy shared by every repro subsystem."""


class ReproError(Exception):
    """Base class for all errors raised by the repro toolchain."""


class ParseError(ReproError):
    """Raised when source text (C subset or JS subset) cannot be parsed.

    Carries the offending line/column so toolchain facades can report
    Cheerp-style diagnostics.
    """

    def __init__(self, message, line=None, col=None):
        location = ""
        if line is not None:
            location = f" at line {line}" + (f":{col}" if col is not None else "")
        super().__init__(f"{message}{location}")
        self.line = line
        self.col = col


class CompileError(ReproError):
    """Raised when a frontend/backend cannot lower an input program."""


class LinkError(CompileError):
    """Raised for link-stage failures (e.g. conflicting symbol definitions
    between pre-compiled and explicitly linked libraries, §3.2)."""


class ValidationError(ReproError):
    """Raised when a Wasm module fails validation."""


class TrapError(ReproError):
    """Raised when Wasm execution traps (unreachable, OOB access, exhausted
    linear memory, division by zero)."""


class MeasurementError(ReproError):
    """Raised when the harness detects an invalid measurement, e.g. a
    benchmark whose output differs between repetitions (§3.3.2 averages
    repetitions, which is only sound when every run computes the same
    result)."""


class SweepError(ReproError):
    """Raised when a benchmark × configuration sweep finishes with failed
    cells and the caller asked for strict semantics.

    Carries the partial results so no completed work is discarded:
    ``sweep`` is the full :class:`~repro.harness.parallel.SweepResult`
    (successful values merged in input order plus one structured
    :class:`~repro.harness.parallel.CellFailure` per failed cell), and
    ``failures`` is a shortcut to its failure list.  The message is the
    sweep's human-readable failure report.
    """

    def __init__(self, sweep):
        self.sweep = sweep
        self.failures = list(sweep.failures)
        super().__init__(sweep.report())
