"""Exception types shared across the package: one per CLI exit code.

The message names the check that failed; the class only picks the exit
code.
"""


class VpshellError(Exception):
    """Bad input, or data that fails a check (CLI exit 4)."""


class ResourceLimit(VpshellError):
    """An enumeration would exceed the configured budget (CLI exit 3)."""


class OracleMismatch(VpshellError):
    """Two independent counting routes disagree (CLI exit 2)."""
