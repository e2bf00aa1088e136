"""Virtio-style guest↔host transport cost model.

Host-guest data transport in vSoC is based on virtio (§4): guest drivers
place commands in shared rings and *kick* the host with a write that causes
a VM exit. Batching several commands per kick amortizes the exit cost —
the reason §3.4's command queues accept asynchronous commands "in batch to
reduce transport overhead across the virtualization boundary".

:class:`VirtioTransport` turns (batch size → dispatch delay) into one
place, and counts kicks/commands for the experiments. A kick always lands:
a dropped attempt is paid for, counted, and retried after a backoff.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.span import NO_FLOW, NULL_TRACER, Tracer
from repro.sim import RetryPolicy, Simulator, Timeout

#: Optional fault hook: called once per kick attempt with
#: ``(transport, batch_size)``. Return ``None`` for a clean kick,
#: ``("drop",)`` to lose the attempt after its cost is paid (the kick backs
#: off and tries again), or ``("delay", ms)`` to stretch the dispatch by
#: ``ms`` — a stalled VM exit.
TransportFaultHook = Callable[["VirtioTransport", int], Optional[Tuple[Any, ...]]]

#: Dropped kicks clear when the fault window closes, so a kick retries
#: forever with a capped backoff rather than giving up mid-window.
KICK_RETRY_POLICY = RetryPolicy(
    max_attempts=None, base_delay_ms=0.02, multiplier=2.0, max_delay_ms=1.0
)


class VirtioTransport:
    """Cost model for command dispatch across the virtualization boundary."""

    def __init__(
        self,
        sim: Simulator,
        kick_cost: float = 0.02,
        per_command_cost: float = 0.005,
        tracer: Tracer = NULL_TRACER,
    ):
        if kick_cost < 0 or per_command_cost < 0:
            raise ConfigurationError("transport costs must be >= 0")
        self._tracer = tracer
        self._sim = sim
        self.kick_cost = kick_cost
        self.per_command_cost = per_command_cost
        self.kicks = 0
        self.commands = 0
        self.kick_attempts = 0
        self.kicks_dropped = 0
        self.kicks_delayed = 0
        self.delay_total_ms = 0.0
        self.fault_hook: Optional[TransportFaultHook] = None
        # Every kick of one batch size costs the same unless a fault hook
        # stretches it: one Timeout per batch size serves them all.
        self._waits: Dict[int, Timeout] = {}

    def dispatch_cost(self, batch_size: int) -> float:
        """Driver-side delay for one kick carrying ``batch_size`` commands."""
        if batch_size <= 0:
            raise ConfigurationError("batch size must be positive")
        return self.kick_cost + batch_size * self.per_command_cost

    def kick_reliable(
        self, batch_size: int = 1, flow: int = NO_FLOW
    ) -> Generator[Any, Any, float]:
        """Process: pay the dispatch cost for a batch; returns the delay.

        With a fault hook installed, an attempt may be delayed (dispatch
        takes longer) or dropped. A dropped attempt is paid for, because a
        lost doorbell burns the VM exit regardless, and counted; the kick
        then backs off per :data:`KICK_RETRY_POLICY` and tries again until
        one lands. ``kicks``/``commands`` count only the attempts that
        land. ``flow`` stamps the kick's trace span with the frame it
        carries.
        """
        tracer = self._tracer
        failures = 0
        while True:
            if tracer.enabled:
                span = tracer.begin("transport.kick", "transport", cat="transport",
                                    flow=flow, batch=batch_size)
            wait = self._waits.get(batch_size)
            if wait is None:
                wait = self._waits[batch_size] = Timeout(self.dispatch_cost(batch_size))
            cost = wait.delay
            self.kick_attempts += 1
            verdict = self.fault_hook(self, batch_size) if self.fault_hook is not None else None
            if verdict is not None and verdict[0] == "delay":
                extra = float(verdict[1])
                self.kicks_delayed += 1
                self.delay_total_ms += extra
                cost += extra
                if cost > 0:
                    yield Timeout(cost)
            elif cost > 0:
                yield wait
            if verdict is None or verdict[0] != "drop":
                break
            self.kicks_dropped += 1
            if tracer.enabled:
                tracer.end(span, dropped=True)
            failures += 1
            yield Timeout(KICK_RETRY_POLICY.delay_before_retry(failures))
        self.kicks += 1
        self.commands += batch_size
        if tracer.enabled:
            tracer.end(span)
        return cost

    # -- checkpointing -------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Deterministic, JSON-able image of the transport counters."""
        return {
            "kicks": self.kicks,
            "commands": self.commands,
            "kick_attempts": self.kick_attempts,
            "kicks_dropped": self.kicks_dropped,
            "kicks_delayed": self.kicks_delayed,
            "delay_total_ms": self.delay_total_ms,
        }
