"""Glue between a fault plan and :func:`repro.core.framework.run_program`.

A :class:`FaultInjector` owns one :class:`FaultPlan` and knows where
each fault family attaches: channel wrappers on the message transport,
the verifier wrapper on the liaison interface, and epoch jitter plus
the restart budget on the kernel module.
:class:`repro.core.stack.MonitoredStack` calls the three hooks at the
right points of the Figure 1 wiring.
"""

from __future__ import annotations

from repro.faults.channel import FaultyChannel
from repro.faults.plan import FaultPlan
from repro.faults.verifier import FaultyVerifier
from repro.ipc.base import Channel


class FaultInjector:
    """Attach one plan's faults to a monitored run."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.channel: FaultyChannel = None  # type: ignore[assignment]
        self.verifier: FaultyVerifier = None  # type: ignore[assignment]

    def wrap_verifier(self, verifier) -> FaultyVerifier:
        self.verifier = FaultyVerifier(verifier, self.plan)
        return self.verifier

    def wrap_channel(self, channel: Channel) -> FaultyChannel:
        self.channel = FaultyChannel(channel, self.plan)
        return self.channel

    def configure_kernel(self, hq_module) -> None:
        hq_module.epoch_jitter = self.plan.epoch_jitter
        if self.plan.verifier_restartable:
            hq_module.restart_budget = 1

    def describe(self) -> str:
        return self.plan.describe()
