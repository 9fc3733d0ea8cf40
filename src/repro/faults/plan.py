"""The fault-schedule DSL.

A :class:`FaultPlan` scripts *what goes wrong and when* against the
simulated cluster, deterministically.  Two trigger styles compose freely:

* **counted** faults fire on concrete occasions — "crash node 2 once the
  3rd message has crossed the interconnect", "drop the next message on
  link (0, 1)", "fail the next probe at node 1"; and
* **probabilistic** faults fire per occasion with a given probability,
  drawn from the injector's seeded RNG, so a whole lossy-interconnect run
  replays bit-identically from its seed.

The plan is pure data; the :class:`~repro.faults.injector.FaultInjector`
consumes it.  Plans are reusable: the injector copies the mutable
countdowns at attach time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple


class FaultKind(enum.Enum):
    """The injectable fault classes of the paper's missing fault model."""

    NODE_CRASH = "node_crash"
    NODE_RESTART = "node_restart"
    MESSAGE_DROP = "message_drop"
    MESSAGE_DUPLICATE = "message_duplicate"
    PROBE_FAILURE = "probe_failure"


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault.

    ``after_messages`` gates crash/restart events on the interconnect
    message counter; ``link``/``node`` scope drop/duplicate/probe events;
    ``times`` is the number of occasions a counted event fires on;
    ``probability`` switches the event to probabilistic mode (``times`` is
    then ignored).
    """

    kind: FaultKind
    node: Optional[int] = None
    link: Optional[Tuple[int, int]] = None
    after_messages: int = 0
    times: int = 1
    probability: Optional[float] = None

    def matches_link(self, src: int, dst: int) -> bool:
        if self.link is not None and self.link != (src, dst):
            return False
        if self.node is not None and self.node not in (src, dst):
            return False
        return True

    def matches_node(self, node: int) -> bool:
        return self.node is None or self.node == node


@dataclass
class FaultPlan:
    """A scriptable schedule of faults (builder-style DSL).

    >>> plan = (FaultPlan()
    ...         .crash(node=2, after_messages=3)
    ...         .restart(node=2, after_messages=10)
    ...         .drop(times=1)
    ...         .duplicate(link=(0, 1))
    ...         .fail_probe(node=1))
    >>> len(plan.events)
    5
    """

    events: List[FaultEvent] = field(default_factory=list)

    # --------------------------------------------------------------- builder

    def _add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    def crash(self, node: int, after_messages: int = 0) -> "FaultPlan":
        """Crash ``node`` once ``after_messages`` messages have crossed
        the interconnect (0 = down from the start)."""
        return self._add(
            FaultEvent(FaultKind.NODE_CRASH, node=node, after_messages=after_messages)
        )

    def restart(self, node: int, after_messages: int) -> "FaultPlan":
        """Bring ``node`` back up at the given message count (self-healing
        schedules; explicit recovery uses the controller instead)."""
        return self._add(
            FaultEvent(FaultKind.NODE_RESTART, node=node, after_messages=after_messages)
        )

    def drop(
        self,
        times: int = 1,
        link: Optional[Tuple[int, int]] = None,
        node: Optional[int] = None,
        probability: Optional[float] = None,
    ) -> "FaultPlan":
        """Drop the next ``times`` matching messages (or each matching
        message with ``probability``)."""
        return self._add(
            FaultEvent(
                FaultKind.MESSAGE_DROP,
                link=link, node=node, times=times, probability=probability,
            )
        )

    def duplicate(
        self,
        times: int = 1,
        link: Optional[Tuple[int, int]] = None,
        node: Optional[int] = None,
        probability: Optional[float] = None,
    ) -> "FaultPlan":
        """Deliver the next ``times`` matching messages twice."""
        return self._add(
            FaultEvent(
                FaultKind.MESSAGE_DUPLICATE,
                link=link, node=node, times=times, probability=probability,
            )
        )

    def fail_probe(
        self,
        times: int = 1,
        node: Optional[int] = None,
        probability: Optional[float] = None,
    ) -> "FaultPlan":
        """Make the next ``times`` matching index/GI probes fail once each."""
        return self._add(
            FaultEvent(
                FaultKind.PROBE_FAILURE,
                node=node, times=times, probability=probability,
            )
        )

    # --------------------------------------------------------------- queries

    def is_empty(self) -> bool:
        return not self.events

    def scaled(self, factor: float) -> "FaultPlan":
        """A copy with every probabilistic event's probability scaled."""
        scaled_events = [
            replace(e, probability=min(1.0, e.probability * factor))
            if e.probability is not None
            else e
            for e in self.events
        ]
        return FaultPlan(events=scaled_events)

    # ------------------------------------------------------------ schedules

    @classmethod
    def single_fault_schedules(
        cls,
        crash_node: int = 2,
        crash_after_messages: int = 2,
        probe_node: Optional[int] = None,
    ) -> Dict[str, "FaultPlan"]:
        """The canonical one-fault-per-run sweep used by the property test:
        every fault class exactly once, everything else fault-free."""
        return {
            "node_crash": cls().crash(
                node=crash_node, after_messages=crash_after_messages
            ),
            "message_drop": cls().drop(times=1),
            "message_duplication": cls().duplicate(times=1),
            "probe_failure": cls().fail_probe(times=1, node=probe_node),
        }
