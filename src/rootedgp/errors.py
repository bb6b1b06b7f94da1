"""Shared exception types, and the bound on what a diagnostic quotes."""

# A diagnostic quotes at most this many characters of the offending text.
MAX_QUOTE = 40


def _clip(text: str) -> str:
    return text if len(text) <= MAX_QUOTE else text[:MAX_QUOTE] + "..."


class GraphError(Exception):
    """Invalid host-graph operation (bad id, dangling deletion, scope misuse)."""


class ValidationError(Exception):
    """A rule or program failed load-time validation."""


class ParseError(Exception):
    """Syntax error in a host graph, rule, program, or op script."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class DivergenceError(RuntimeError):
    """The loop-iteration budget was exhausted; the run was aborted."""


class MalformedTreeError(Exception):
    """The host graph does not encode a well-formed binary search tree."""
