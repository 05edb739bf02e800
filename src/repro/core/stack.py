"""The monitored stack of Figure 1, wired in one place.

One :class:`~repro.sim.kernel.Kernel` hosting the HQ kernel module, one
verifier behind the module's privileged channel — a
:class:`~repro.core.verifier.Verifier`, or a
:class:`~repro.core.shard_verifier.ShardedVerifier` when ``shards > 1``
— and one AppendWrite channel per monitored program.
:func:`repro.core.framework.run_program`,
:class:`repro.core.session.HQSession` and
:class:`repro.traffic.engine.TrafficEngine` all build their stack here,
so a channel, a runtime and a fault injector are wired the same way on
every path.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.policy import Policy
from repro.core.runtime import HQRuntime
from repro.core.verifier import Verifier
from repro.ipc.appendwrite import AppendWriteUArch
from repro.ipc.base import Channel
from repro.ipc.registry import create_channel
from repro.sim.kernel import HQKernelModule, Kernel
from repro.sim.process import Process


class MonitoredStack:
    """Kernel, HQ kernel module, verifier and channels of one deployment.

    ``fault_injector`` (a :class:`repro.faults.FaultInjector` or anything
    with its ``wrap_verifier`` / ``wrap_channel`` / ``configure_kernel``
    surface) interposes on the verifier, on every channel and on the
    kernel module.  ``race_check`` (sharded only) attaches a
    happens-before probe to every shard ring; :meth:`races` analyses
    them.  The remaining keywords configure the
    :class:`~repro.sim.kernel.HQKernelModule`.
    """

    def __init__(self, policy_factory: Callable[[], Policy], *,
                 shards: Optional[int] = None, race_check: bool = False,
                 observer=None, fault_injector=None,
                 **module_options) -> None:
        self.observer = observer
        self.fault_injector = fault_injector
        #: Channels as created, before any fault wrapper: the owners of
        #: the buffers :meth:`close` releases.
        self._channels: List[Channel] = []
        self._ring_probes: List[Tuple[int, object]] = []
        if shards is not None and shards > 1:
            from repro.core.shard_verifier import ShardedVerifier
            verifier = ShardedVerifier(policy_factory, shards)
            if race_check:
                from repro.mc.race import RingProbe
                for engine in verifier.shards:
                    probe = RingProbe()
                    # The inline coordinator plays both protocol roles
                    # on each ring; distinct actor names per role keep
                    # the happens-before analysis honest about which
                    # accesses the sync accesses must order.
                    engine.ring.attach_probe(
                        probe,
                        producer=f"router{engine.shard_id}",
                        consumer=f"shard{engine.shard_id}")
                    self._ring_probes.append((engine.shard_id, probe))
        else:
            verifier = Verifier(policy_factory)
        # The observer rides on the *inner* verifier so fault wrappers
        # (which delegate to it) are observed for free and nothing is
        # double-counted.
        verifier.observer = observer
        if fault_injector is not None:
            # Wrap first so every liaison path — the drain hooks wired
            # below included — goes through the injector.
            verifier = fault_injector.wrap_verifier(verifier)
        self.verifier = verifier
        self.hq = HQKernelModule(verifier, **module_options)
        self.hq.observer = observer
        if fault_injector is not None:
            fault_injector.configure_kernel(self.hq)
        self.kernel = Kernel(self.hq)

    def add_channel(self, kind: str, **channel_kwargs) -> Channel:
        """Create one program's channel, drained by this stack's verifier.

        A full buffer drains the verifier so the sender can retry; the
        AMR variant also rewinds its address registers once the region
        has been read (section 2.3.2).  Returns the channel the program
        sends on: the fault wrapper when an injector is set.
        """
        channel = create_channel(kind, **channel_kwargs)
        self._channels.append(channel)
        poll = self.verifier.poll
        if isinstance(channel, AppendWriteUArch):
            def _kernel_amr_handler(ch: AppendWriteUArch) -> None:
                poll()
                ch.reset_registers()
            channel._on_full = _kernel_amr_handler
        else:
            channel._on_full = lambda ch: poll()
        channel.observer = self.observer
        if self.fault_injector is not None:
            channel = self.fault_injector.wrap_channel(channel)
        self.verifier.attach_channel(channel)
        return channel

    def enable(self, process: Process) -> None:
        """Attach ``process`` and enable HerQules for it (Figure 1, 1a/1b)."""
        self.kernel.attach(process)
        self.hq.enable(process)

    def attach_runtime(self, runtime: HQRuntime) -> None:
        """Channel-full backoff drains the verifier, and a fail-closed
        kill is recorded with the kernel module."""
        runtime.drain_hook = self.verifier.poll
        runtime.on_fail_closed = self.hq.record_fail_closed

    def races(self) -> Optional[List[str]]:
        """Happens-before races on the shard rings (None: not checked)."""
        if not self._ring_probes:
            return None
        from repro.mc.race import RaceDetector
        races: List[str] = []
        for shard_id, probe in self._ring_probes:
            # One endpoint object played both roles, so its event log
            # is already a total order — no cross-log merge needed.
            detector = RaceDetector().feed(probe.events)
            races.extend(f"shard {shard_id}: {race}"
                         for race in detector.races)
        return races

    def close(self) -> None:
        """Release channel buffers and shard rings (idempotent)."""
        for channel in self._channels:
            channel.close()
        self.verifier.close()
