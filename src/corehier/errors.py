"""Exception types shared across the package, each with the exit code the CLI returns for it."""


class CoreHierError(Exception):
    """Base class for all package errors; each subclass sets ``exit_code``."""


class ConfigError(CoreHierError):
    """A parameter or configuration value makes the requested operation impossible."""

    exit_code = 2


class InputError(CoreHierError):
    """Input data is malformed, empty, or otherwise unusable."""

    exit_code = 3


class VerificationError(CoreHierError):
    """An empirical check that must hold was violated."""

    exit_code = 4
