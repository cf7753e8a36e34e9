"""Exception hierarchy shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all restent errors."""


class ConfigError(ToolkitError):
    """Inconsistent or invalid configuration (bad flags, shapes, names)."""


class NumericError(ToolkitError):
    """Numeric breakdown: failed decomposition, singular input, lost definiteness."""


class UnknownSystemError(ConfigError):
    """Lookup of a system name that is not registered."""
