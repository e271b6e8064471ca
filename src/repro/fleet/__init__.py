"""The replica fleet: one scaled-out, epoch-consistent read tier.

``repro.fleet`` composes three layers into a production-shaped
deployment of the governance service:

* :mod:`repro.fleet.supervisor` — child processes: one durable leader
  gateway plus N journal-tailing read replicas, spawned on ephemeral
  ports, health-watched, respawned on death, reliably torn down;
* :mod:`repro.fleet.balancer` — the routing decision: per-session
  epoch floors (no session ever observes governance history move
  backwards) over health/readiness/lag-probed backends;
* :mod:`repro.fleet.router` — the HTTP front door speaking the exact
  v1 wire protocol, so any :class:`~repro.api.client.GovernedClient`
  pointed at the router transparently gets fan-out reads,
  leader-forwarded writes, retry-on-failure, and admission control.

:class:`Fleet` wires the three together::

    with Fleet(state_dir, replicas=3) as fleet:
        client = fleet.client()
        client.rows(QUERY)            # served by a replica
        steward.submit_release(...)   # forwarded to the leader

``python -m repro.fleet --replicas 3`` boots the same topology from
the command line (see :mod:`repro.fleet.__main__`).
"""

from __future__ import annotations

import signal
import time
from pathlib import Path
from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.client import GovernedClient

from repro.errors import FleetError
from repro.fleet.balancer import Backend, EpochBalancer, SessionState
from repro.fleet.router import FleetRouter
from repro.fleet.supervisor import FleetSupervisor, ManagedProcess

__all__ = [
    "Backend", "EpochBalancer", "Fleet", "FleetRouter",
    "FleetSupervisor", "ManagedProcess", "SessionState",
]


class Fleet:
    """A supervised leader + N replicas behind one router URL.

    *state_dir* is the leader's durable state directory (journal +
    snapshots); seed it before boot — the leader child recovers from
    it — or start empty and govern through the router.
    """

    def __init__(self, state_dir: str | Path, *, replicas: int = 2,
                 host: str = "127.0.0.1", router_port: int = 0,
                 poll_interval: float = 0.1,
                 probe_interval: float = 0.25,
                 restart: bool = True,
                 **router_kwargs: Any) -> None:
        if replicas < 0:
            raise FleetError("replicas must be >= 0")
        self.state_dir = Path(state_dir)
        self.replicas = replicas
        self.supervisor = FleetSupervisor(
            host=host, poll_interval=poll_interval, restart=restart,
            on_change=self._on_change)
        self.router = FleetRouter(
            host=host, port=router_port,
            probe_interval=probe_interval, **router_kwargs)
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Fleet":
        if self._started:
            return self
        try:
            leader = self.supervisor.spawn_leader(self.state_dir)
            self.router.add_backend("leader", leader.url, "leader",
                                    pid=leader.pid)
            for index in range(self.replicas):
                proc = self.supervisor.spawn_replica(
                    leader.url, key=f"replica-{index}")
                self.router.add_backend(proc.key, proc.url, "replica",
                                        pid=proc.pid)
            self.supervisor.start_monitor()
            self.router.start()
        except BaseException:
            self.close()
            raise
        self._started = True
        return self

    def close(self) -> None:
        self.router.stop()
        self.supervisor.close()
        self._started = False

    def __enter__(self) -> "Fleet":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- supervisor → router wiring ------------------------------------------

    def _on_change(self, key: str, old: ManagedProcess | None,
                   new: ManagedProcess | None) -> None:
        self.router.replace_backend(
            key, new.url if new is not None else None,
            new.role if new is not None else
            (old.role if old is not None else "replica"),
            pid=new.pid if new is not None else None)

    # -- conveniences --------------------------------------------------------

    @property
    def url(self) -> str:
        """The router URL — point clients here."""
        return self.router.url

    @property
    def leader_url(self) -> str:
        leader = self.supervisor.process("leader")
        if leader is None:
            raise FleetError("the fleet has no leader process")
        return leader.url

    def client(self, **kwargs: Any) -> "GovernedClient":
        """A :class:`GovernedClient` session through the router."""
        from repro.api.client import GovernedClient

        return GovernedClient(self.url, **kwargs)

    def kill_replica(self, key: str,
                     sig: int = signal.SIGKILL) -> int:
        """Chaos helper: signal one replica child; returns its pid."""
        return self.supervisor.kill(key, sig)

    def wait_converged(self, timeout: float = 30.0) -> None:
        """Block until every live replica is ready and caught up to
        the leader's epoch (raises :class:`FleetError` on timeout)."""
        deadline = time.monotonic() + timeout
        while True:
            backends = self.router.balancer.backends()
            leader = next((b for b in backends
                           if b.role == "leader"), None)
            replicas = [b for b in backends if b.role == "replica"]
            if leader is not None and leader.healthy and all(
                    b.healthy and b.ready and b.lag == 0
                    and b.epoch >= leader.epoch for b in replicas):
                return
            if time.monotonic() > deadline:
                state = [b.snapshot() for b in backends]
                raise FleetError(
                    f"fleet did not converge within {timeout:.0f}s: "
                    f"{state}")
            time.sleep(0.05)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Fleet replicas={self.replicas} "
                f"router={self.router.url if self._started else None}>")
