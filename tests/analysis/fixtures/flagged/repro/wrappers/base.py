"""Seeded capability-contract violations (fixture — parsed, never run)."""


class WrapperCapabilities:
    def __init__(self, projection: bool = False) -> None:
        self.projection = projection


class BrokenWrapper:
    """Advertises more than it implements."""

    def capabilities(self) -> WrapperCapabilities:
        return WrapperCapabilities(projection=True)

    def fetch_rows(self, limit=None) -> list:
        # violation: projection=True but no `columns` parameter
        return []

    def fetch_deltas(self) -> list:
        # violations: no `since` parameter, and no delta_cursor
        return []


class ZeroArgumentWrapper:
    """Advertises nothing, yet Wrapper.fetch passes columns=."""

    def fetch_rows(self) -> list:
        # violation: no `columns` parameter
        return []


class StrayError(ValueError):
    """Violation: exception class defined outside repro.errors."""
