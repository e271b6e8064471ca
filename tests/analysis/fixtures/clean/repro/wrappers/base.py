"""Clean fixture wrapper honoring every advertised capability
(parsed, never run)."""


class WrapperCapabilities:
    def __init__(self, projection: bool = False) -> None:
        self.projection = projection


class HonestWrapper:
    def capabilities(self) -> WrapperCapabilities:
        return WrapperCapabilities(projection=True)

    def fetch_rows(self, columns=None) -> list:
        return []

    def delta_cursor(self) -> int:
        return 0

    def fetch_deltas(self, since: int) -> list:
        return []


class PassThroughWrapper:
    """Takes the pushdown keyword through **kwargs and ignores it."""

    def fetch_rows(self, **kwargs) -> list:
        return []
