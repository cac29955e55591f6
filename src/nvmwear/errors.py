"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class TraceFormatError(SimulationError):
    """A trace file violates the record grammar or its validity rules."""

    def __init__(self, message, line_no=None, event_index=None):
        if line_no is not None:
            message = "line %d: %s" % (line_no, message)
        super().__init__(message)
        self.line_no = line_no
        self.event_index = event_index


class LayoutError(SimulationError):
    """A memory layout is malformed (overlap, alignment, ordering)."""


class GeneratorError(SimulationError):
    """A workload generator cannot fit its footprint into the layout."""


class UnmappedPageError(SimulationError):
    """A virtual address resolved to a page with no physical frame."""


class StackOverflowError(SimulationError):
    """The valid stack exceeds the room required for one relocation step.

    `event_index`, when known, is the 0-based index of the trace's
    stack-pointer update that set that stack."""

    def __init__(self, message, event_index=None):
        if event_index is not None:
            message = "stack pointer of event %d: %s" % (event_index, message)
        super().__init__(message)
        self.event_index = event_index


class MetricsError(SimulationError):
    """A metric is undefined for the given inputs (e.g. all-zero region)."""


class ConfigError(SimulationError):
    """A simulation or CLI configuration value is invalid."""
