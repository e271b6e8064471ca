"""Seeded capability-contract violations (fixture — parsed, never run)."""


class BrokenWrapper:
    """Breaks the scan and CDC contracts."""

    def fetch_rows(self, limit=None) -> list:
        # violation: no `columns` parameter for the projection pushdown
        return []

    def fetch_deltas(self) -> list:
        # violations: no `since` parameter, and no delta_cursor
        return []


class ZeroArgumentWrapper:
    """Takes no arguments, yet Wrapper.relation passes columns=."""

    def fetch_rows(self) -> list:
        # violation: no `columns` parameter
        return []


class StrayError(ValueError):
    """Violation: exception class defined outside repro.errors."""
