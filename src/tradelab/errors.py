"""Shared exception base for the package.

Module-specific errors subclass :class:`TradeLabError` in the module that
owns them; the CLI treats any TradeLabError as a clean exit-1 diagnostic.
"""


class TradeLabError(Exception):
    """Base class for every error raised by tradelab; the message ends with the
    file, column and 1-based row at fault, when known: ``(path, column 'close', row 7)``."""

    def __init__(self, message: str = "", path=None, row: int | None = None, column: str | None = None):
        context = [] if path is None else [str(path)]
        context += [] if column is None else [f"column {column!r}"]
        context += [] if row is None else [f"row {row}"]
        super().__init__(f"{message} ({', '.join(context)})" if context else message)
        self.reason, self.column, self.row = message, column, row
        self.path = None if path is None else str(path)
