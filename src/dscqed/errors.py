"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration / validation problems
exit with 1, numerical failures (non-convergence, unrepresentable results)
exit with 2.
"""


class ConfigError(ValueError):
    """Malformed or invalid configuration / input file.

    Messages carry a location: ``path:line`` for parse errors, a dotted
    field path (``qrm.omega1_ghz``) for invariant violations.
    """


class ConvergenceError(RuntimeError):
    """A numerical procedure exhausted its budget without converging, or
    its result cannot be represented in double precision."""


def io_error(path, exc: Exception) -> ConfigError:
    """ConfigError naming the file that an OSError or a UnicodeDecodeError
    concerns."""
    return ConfigError(f"{path}: {getattr(exc, 'strerror', None) or exc}")
