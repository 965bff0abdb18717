"""Exit-code failures, importable without the solver or the certifier."""


class ConfigError(ValueError):
    """An invalid configuration value (exit 1)."""


class VerificationError(RuntimeError):
    """A residue, a preflight gate or an identity check failed (exit 2)."""


class BlowUpError(RuntimeError):
    """The solution left the finite range (exit 3)."""
