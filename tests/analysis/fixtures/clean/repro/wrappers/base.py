"""Clean fixture wrapper honoring the scan and CDC contracts
(parsed, never run)."""


class HonestWrapper:
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
