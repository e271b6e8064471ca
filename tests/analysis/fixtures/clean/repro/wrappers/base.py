"""Clean fixture wrapper honoring every advertised capability
(parsed, never run)."""


class WrapperCapabilities:
    def __init__(self, projection: bool = False,
                 id_filter: bool = False) -> None:
        self.projection = projection
        self.id_filter = id_filter


class HonestWrapper:
    def capabilities(self) -> WrapperCapabilities:
        return WrapperCapabilities(projection=True, id_filter=True)

    def fetch_rows(self, columns=None, id_filter=None) -> list:
        return []

    def delta_cursor(self) -> int:
        return 0

    def fetch_deltas(self, since: int) -> list:
        return []


class PassThroughWrapper:
    """Takes the pushdown keywords through **kwargs and honors none."""

    def fetch_rows(self, **kwargs) -> list:
        return []
