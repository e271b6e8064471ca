"""Seeded capability-contract violations (fixture — parsed, never run)."""


class WrapperCapabilities:
    def __init__(self, projection: bool = False,
                 id_filter: bool = False) -> None:
        self.projection = projection
        self.id_filter = id_filter


class BrokenWrapper:
    """Advertises more than it implements."""

    def capabilities(self) -> WrapperCapabilities:
        return WrapperCapabilities(projection=True, id_filter=True)

    def fetch_rows(self, id_filter=None) -> list:
        # violation: projection=True but no `columns` parameter
        return []

    def fetch_deltas(self) -> list:
        # violations: no `since` parameter, and no delta_cursor
        return []


class ZeroArgumentWrapper:
    """Advertises nothing, yet Wrapper.fetch passes both keywords."""

    def fetch_rows(self) -> list:
        # violations: no `columns`, no `id_filter` parameter
        return []


class StrayError(ValueError):
    """Violation: exception class defined outside repro.errors."""
