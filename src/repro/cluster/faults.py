"""Deterministic fault injection.

A :class:`CrashPlan` names the point at which a component fails —
after the Nth committed transaction, or at a simulated time — and the
:class:`FaultInjector` fires the registered crash action when the
workload driver (or the simulator) reaches that point. Keeping the
plan declarative makes crash-recovery tests reproducible and lets the
property-based tests sweep the crash point over every position in a
transaction schedule.

Every firing is recorded in :attr:`FaultInjector.fired` as a
:class:`FiredPlan` — the plan, its repr, and the simulated time and/or
transaction count at which it went off — and, when an observer is
attached, also emitted as a ``fault.crash`` trace event so crash
points line up with takeover spans in a recorded timeline.

Network faults are declared the same way: a :class:`PartitionPlan`
cuts two sides apart at a simulated time (symmetric, or one-way for
asymmetric link loss) and optionally heals later, emitting
``fault.partition`` / ``fault.heal`` trace events. The injector stays
topology-agnostic — the scheduled actions carry the topology — so the
same plan machinery serves primary-backup pairs, sharded clusters and
quorum groups alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.obs.observer import resolve_observer


@dataclass(frozen=True)
class CrashPlan:
    """When to crash.

    Exactly one of ``after_transactions`` / ``at_time_us`` is set.
    """

    after_transactions: Optional[int] = None
    at_time_us: Optional[float] = None

    def __post_init__(self):
        if (self.after_transactions is None) == (self.at_time_us is None):
            raise ValueError(
                "set exactly one of after_transactions / at_time_us"
            )


@dataclass(frozen=True)
class PartitionPlan:
    """When to cut the network, and (optionally) when to heal it.

    A partition separates two sides of a replica group or cluster at
    ``at_time_us``; a ``symmetric`` cut blocks both directions, an
    asymmetric one models one-way link loss (A's packets to B are
    dropped while B still reaches A). When ``heal_at_us`` is set the
    injector also fires the heal action at that time. ``description``
    names the sides for the trace record; the injector itself is
    topology-agnostic — the scheduled actions carry the topology.
    """

    at_time_us: float
    heal_at_us: Optional[float] = None
    symmetric: bool = True
    description: str = ""

    def __post_init__(self):
        if self.heal_at_us is not None and self.heal_at_us < self.at_time_us:
            raise ValueError(
                f"heal at {self.heal_at_us} precedes partition "
                f"at {self.at_time_us}"
            )


@dataclass(frozen=True)
class FiredPlan:
    """One plan that went off: what fired, where, and when.

    ``at_us`` is the simulated time of the firing when one was known
    (time-triggered plans always have it; transaction-triggered plans
    get it from the injector's clock or observer when either is
    attached, else None). ``at_transactions`` is the commit count for
    transaction-triggered plans. ``plan`` is the :class:`CrashPlan` or
    :class:`PartitionPlan` (heals record the same plan twice).
    """

    plan: object
    plan_repr: str
    at_us: Optional[float] = None
    at_transactions: Optional[int] = None


class FaultInjector:
    """Fires crash actions when execution reaches planned points.

    Args:
        observer: obs hook; fired plans emit ``fault.crash`` events.
        clock: optional simulated-time source used to stamp
            transaction-triggered firings (time-triggered firings are
            stamped with the notification time itself).
    """

    def __init__(self, observer=None, clock: Optional[Callable[[], float]] = None):
        self._plans: List[tuple] = []
        # [plan, partition_action, heal_action, partition_fired, heal_fired]
        self._partitions: List[list] = []
        self._clock = clock
        self.observer = resolve_observer(observer)
        self.fired: List[FiredPlan] = []

    def schedule(self, plan: CrashPlan, action: Callable[[], None]) -> None:
        self._plans.append((plan, action))

    def schedule_partition(
        self,
        plan: PartitionPlan,
        partition_action: Callable[[], None],
        heal_action: Optional[Callable[[], None]] = None,
    ) -> None:
        """Register a partition (and optional heal) to fire on
        :meth:`on_time` notifications, like time-triggered crashes."""
        self._partitions.append([plan, partition_action, heal_action, False, False])

    def on_transaction_committed(self, count: int) -> bool:
        """Notify that ``count`` transactions have committed; fires any
        matching plan. Returns True if a crash fired."""
        fired = False
        for plan, action in list(self._plans):
            if (
                plan.after_transactions is not None
                and count >= plan.after_transactions
            ):
                self._fire(plan, action, at_us=self._now(), at_transactions=count)
                fired = True
        return fired

    def on_time(self, now_us: float) -> bool:
        """Notify simulated time progress; fires any due time plan."""
        fired = False
        for plan, action in list(self._plans):
            if plan.at_time_us is not None and now_us >= plan.at_time_us:
                self._fire(plan, action, at_us=now_us)
                fired = True
        for entry in self._partitions:
            plan, partition_action, heal_action, cut_done, heal_done = entry
            if not cut_done and now_us >= plan.at_time_us:
                entry[3] = True
                self._fire_partition(plan, partition_action, "fault.partition",
                                     at_us=now_us)
                fired = True
            if (
                entry[3]
                and not heal_done
                and plan.heal_at_us is not None
                and now_us >= plan.heal_at_us
            ):
                entry[4] = True
                self._fire_partition(plan, heal_action, "fault.heal",
                                     at_us=now_us)
                fired = True
        self._partitions = [
            entry for entry in self._partitions
            if not (entry[3] and (entry[0].heal_at_us is None or entry[4]))
        ]
        return fired

    def _now(self) -> Optional[float]:
        if self._clock is not None:
            return self._clock()
        if self.observer.enabled:
            return self.observer.now
        return None

    def _fire(
        self,
        plan: CrashPlan,
        action: Callable[[], None],
        at_us: Optional[float] = None,
        at_transactions: Optional[int] = None,
    ) -> None:
        self._plans = [
            (other_plan, other_action)
            for other_plan, other_action in self._plans
            if other_plan is not plan
        ]
        self.fired.append(
            FiredPlan(
                plan=plan,
                plan_repr=repr(plan),
                at_us=at_us,
                at_transactions=at_transactions,
            )
        )
        if self.observer.enabled:
            self.observer.count("faults.fired")
            attrs = {"plan": repr(plan)}
            if at_transactions is not None:
                attrs["at_transactions"] = at_transactions
            if at_us is not None:
                self.observer.event_at(at_us, "faults", "fault.crash", **attrs)
            else:
                self.observer.event("faults", "fault.crash", **attrs)
        action()

    def _fire_partition(
        self,
        plan: PartitionPlan,
        action: Optional[Callable[[], None]],
        event_name: str,
        at_us: float,
    ) -> None:
        self.fired.append(
            FiredPlan(plan=plan, plan_repr=repr(plan), at_us=at_us)
        )
        if self.observer.enabled:
            self.observer.count("faults.fired")
            attrs = {"plan": repr(plan), "symmetric": plan.symmetric}
            if plan.description:
                attrs["sides"] = plan.description
            self.observer.event_at(at_us, "faults", event_name, **attrs)
        if action is not None:
            action()

    @property
    def pending(self) -> int:
        stages = 0
        for plan, _cut, _heal, cut_done, heal_done in self._partitions:
            if not cut_done:
                stages += 1
            if plan.heal_at_us is not None and not heal_done:
                stages += 1
        return len(self._plans) + stages
