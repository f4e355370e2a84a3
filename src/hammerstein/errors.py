"""Exception types for CLI exit codes 2, 3 and 5, each the class's ``exit_code``;
exit 4 is a solve report's ``converged`` flag, which nothing raises."""


class HammersteinError(Exception):
    """Base class for all solver-specific failures."""

    exit_code: int


class ConfigError(HammersteinError):
    """A run configuration is malformed; names the offending key path."""

    exit_code = 2

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class SpecRejectedError(HammersteinError):
    """A kernel spec failed its numerical condition checks."""

    exit_code = 3

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NumericalBreakdownError(HammersteinError):
    """An iterate left its domain, a theorem-level inequality broke beyond
    noise, or a solve report contradicts itself."""

    exit_code = 5
