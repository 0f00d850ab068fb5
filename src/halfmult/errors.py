"""Exception types shared across the package."""


class BudgetError(RuntimeError):
    """An exact computation was asked to exceed its configured size budget."""


class FormatError(ValueError):
    """An input file is unreadable or structurally malformed."""


class CertificateFormatError(FormatError):
    """A coloring certificate is structurally malformed (bad header, length, or color range)."""


class RamseyTableError(LookupError):
    """A Ramsey number R(s,t) was requested but is not in the table."""
