"""End-to-end covert channels over the two primitives.

Receivers synchronize on the preamble and then sample one bit per window.
Everything here runs on the shared :class:`~repro.virt.scheduler.Timeline`,
so bit errors are *emergent* — a jittered sender submission really does
land in the wrong window and really does evict/occupy the wrong slot —
rather than drawn from an error model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.devtlb_attack import DsaDevTlbAttack
from repro.core.swq_attack import DsaSwqAttack
from repro.covert.metrics import bit_error_rate, random_bits, true_capacity
from repro.covert.protocol import CovertConfig, CovertSender
from repro.errors import ConfigurationError
from repro.hw.units import us_to_cycles
from repro.virt.scheduler import Timeline
from repro.virt.system import AttackTopology, CloudSystem


@dataclass(frozen=True)
class CovertChannelResult:
    """Outcome of one covert transmission."""

    sent: np.ndarray
    received: np.ndarray
    raw_bps: float
    error_rate: float
    true_bps: float

    @property
    def bits(self) -> int:
        """Payload length."""
        return int(self.sent.size)


class DevTlbCovertReceiver:
    """Receiver for the ``DSA_DevTLB`` channel."""

    def __init__(self, attack: DsaDevTlbAttack, config: CovertConfig) -> None:
        self.attack = attack
        self.config = config

    def synchronize(
        self, timeline: Timeline, max_windows: int = 400, min_hits: int | None = None
    ) -> int:
        """Scan for the preamble; return the estimated message start time.

        Probes at a quarter-window period, then refines the phase estimate
        by averaging over every preamble hit (reducing the single-bit
        jitter error by roughly the square root of the preamble length).
        *min_hits* overrides how many preamble hits are demanded before a
        lock is accepted (default: all but two of the preamble bits) —
        lower it when submission loss is expected to thin the preamble.
        """
        if min_hits is None:
            min_hits = max(self.config.preamble_ones - 2, 2)
        elif min_hits < 2:
            raise ConfigurationError(f"min_hits must be >= 2, got {min_hits}")
        window = us_to_cycles(self.config.bit_window_us)
        scan = max(window // 6, 1)
        clock = timeline.clock
        # Scanning runs for hundreds of probes, so a rare hit-latency
        # noise spike could fake a preamble edge and shift the whole lock
        # by a window.  A raised threshold rejects spikes (a true miss
        # costs an ATS round trip, far above any spike on a hit).
        sync_threshold = self.attack.threshold + 150
        self.attack.prime()
        deadline = clock.now + max_windows * window
        while clock.now < deadline:
            first_hit = None
            while clock.now < deadline:
                timeline.idle_until(clock.now + scan)
                if self.attack.probe().latency_cycles >= sync_threshold:
                    first_hit = clock.now
                    break
            if first_hit is None:
                break

            # Collect the remaining preamble hits to refine the phase.
            centers = [first_hit - scan // 2]
            preamble_end_guess = first_hit + (self.config.preamble_ones - 0.5) * window
            while clock.now < preamble_end_guess - scan:
                timeline.idle_until(clock.now + scan)
                if self.attack.probe().latency_cycles >= sync_threshold:
                    centers.append(clock.now - scan // 2)

            # A lone noise spike is not a preamble: demand hits in most
            # of the expected windows before accepting the lock.
            if len(centers) >= min_hits:
                return self._align_to_preamble(
                    np.asarray(centers, dtype=np.float64), window
                )
        raise ConfigurationError("no preamble detected during synchronization")

    @staticmethod
    def _align_to_preamble(centers: np.ndarray, window: int) -> int:
        """Fit window phase *and* origin to the observed preamble hits.

        Phase: two median passes over the per-hit start estimates (the
        median is immune to single hits whose window index got
        mis-assigned by jitter near half a window).

        Origin: a stray noise spike before the preamble would anchor the
        whole fit one window early, so the origin is re-anchored to the
        start of the longest (single-gap-tolerant) run of hit windows —
        which is the preamble itself, since spikes are isolated.
        """
        first = centers[0]
        estimate = float(
            np.median(centers - (np.round((centers - first) / window) + 0.5) * window)
        )
        for _ in range(2):
            k = np.round((centers - estimate) / window - 0.5)
            estimate = float(np.median(centers - (k + 0.5) * window))

        indices = np.round((centers - estimate) / window - 0.5).astype(int)
        hit_windows = sorted(set(indices.tolist()))
        best_start = hit_windows[0]
        best_length = 1
        run_start = hit_windows[0]
        run_length = 1
        for previous, current in zip(hit_windows, hit_windows[1:]):
            if current - previous <= 2:  # tolerate one slipped bit
                run_length += current - previous
            else:
                run_start = current
                run_length = 1
            if run_length > best_length:
                best_length = run_length
                best_start = run_start
        return int(estimate + best_start * window)

    def receive(self, timeline: Timeline, start_time: int, nbits: int) -> np.ndarray:
        """Sample *nbits* payload bits, one probe per window boundary."""
        window = us_to_cycles(self.config.bit_window_us)
        payload_start = start_time + self.config.preamble_ones * window
        # Re-prime at the payload boundary (discard the reading).
        timeline.idle_until(payload_start)
        self.attack.probe()
        bits = np.zeros(nbits, dtype=np.int8)
        for i in range(nbits):
            timeline.idle_until(payload_start + (i + 1) * window)
            bits[i] = int(self.attack.probe().evicted)
        return bits


class SwqCovertReceiver:
    """Receiver for the ``DSA_SWQ`` channel (timer-free decoding).

    Each bit window is one congest-idle-probe round.  The anchor is sized
    to ~80 % of the window so the drain completes before the next window
    starts; the congest and drain phases are the channel's blind spots,
    which, together with the coarse sender/receiver alignment that a
    timer-free channel affords, dominates its error rate.
    """

    #: Fraction of the bit window covered by the anchor's execution.
    ANCHOR_FILL = 0.82
    #: Idle span as a fraction of the window (probe fires at its end) —
    #: must end before the anchor completes.  The idle span is also the
    #: sensing coverage: sender pulses outside it are missed, which is
    #: the SWQ channel's dominant error source (its bit error rate is
    #: ~3x the DevTLB channel's in the paper).
    IDLE_SPAN = 0.5

    def __init__(
        self,
        attack: DsaSwqAttack,
        config: CovertConfig,
        idle_span: float | None = None,
    ) -> None:
        self.attack = attack
        self.config = config
        window = us_to_cycles(config.bit_window_us)
        # Estimated cost of the congest burst (enqcmds at ~700 cycles).
        self._congest_cycles = (attack.wq_size - 1) * 730
        self._idle_cycles = int(window * (idle_span or self.IDLE_SPAN))
        # Start each round so the sensing span [congest_end, probe] is
        # centered on the sender's bit center (+0.5 w).
        sensing_mid = self._congest_cycles + self._idle_cycles // 2
        self._round_lead = int(0.5 * window) - sensing_mid

    @staticmethod
    def anchor_bytes_for_window(window_us: float, fill: float = ANCHOR_FILL) -> int:
        """Anchor transfer size whose execution spans ``fill * window``."""
        cycles = us_to_cycles(window_us) * fill
        bytes_per_cycle = 15.0  # two streams at 1/30 cycle/byte each
        return max(int(cycles * bytes_per_cycle), 4096)

    def synchronize(self, timeline: Timeline, max_windows: int = 400) -> int:
        """Two-stage lock onto the SWQ preamble; return the message start.

        **Stage 1 (origin):** free-running wide rounds until a detection
        follows a quiet round.  The leading preamble bits are multi-pulse
        bursts, so the first round overlapping the preamble is guaranteed
        to detect — the quiet-to-detecting edge pins bit 0's window to
        within half a sensing span.

        **Stage 2 (phase):** during the single-pulse tail of the
        preamble, *narrow* rounds (short anchor, short idle) localize
        each detected pulse to a small span; a two-pass median fit over
        those detections refines the window phase.
        """
        window = us_to_cycles(self.config.bit_window_us)
        clock = timeline.clock
        deadline = clock.now + max_windows * window
        narrow_idle = int(window * 0.30)
        narrow_anchor = SwqCovertReceiver.anchor_bytes_for_window(
            self.config.bit_window_us, fill=0.40
        )

        # Stage 1: coarse origin.  Narrow rounds localize the first
        # caught burst pulse to a ~0.3-window span; the burst pulses sit
        # in the window's first ~0.6, so "sensing mid minus 0.35 window"
        # estimates the window start within the half-window ambiguity
        # basin the stage-2 fit needs.
        quiet_rounds = 0
        coarse: int | None = None
        while clock.now < deadline:
            round_start = clock.now
            result = self.attack.run_round(
                idle_cycles=narrow_idle, timeline=timeline, anchor_bytes=narrow_anchor
            )
            if result.victim_detected and quiet_rounds >= 1:
                mid = (round_start + self._congest_cycles + result.probe_time) / 2
                coarse = int(mid - 0.35 * window)
                break
            quiet_rounds = 0 if result.victim_detected else quiet_rounds + 1
        if coarse is None:
            raise ConfigurationError("no preamble detected during synchronization")

        # Stage 2: narrow rounds across the single-pulse preamble tail.
        refine_deadline = coarse + int((self.config.preamble_ones - 0.5) * window)
        mids: list[float] = []
        while clock.now < refine_deadline:
            round_start = clock.now
            result = self.attack.run_round(
                idle_cycles=narrow_idle, timeline=timeline, anchor_bytes=narrow_anchor
            )
            if result.victim_detected:
                mids.append(
                    (round_start + self._congest_cycles + result.probe_time) / 2
                )
        if not mids:
            return coarse

        centers = np.asarray(mids, dtype=np.float64)
        estimate = float(coarse)
        for _ in range(2):
            k = np.round((centers - estimate) / window - 0.5)
            estimate = float(np.median(centers - (k + 0.5) * window))
        # The coarse origin is accurate to well under half a window, so a
        # fit that wandered further slipped a window index: clamp.
        limit = 0.55 * window
        estimate = min(max(estimate, coarse - limit), coarse + limit)
        return int(estimate)

    def receive(self, timeline: Timeline, start_time: int, nbits: int) -> np.ndarray:
        """Sample *nbits* payload bits, one round per window."""
        window = us_to_cycles(self.config.bit_window_us)
        payload_start = start_time + self.config.preamble_ones * window
        timeline.idle_until(payload_start)
        bits = np.zeros(nbits, dtype=np.int8)
        for i in range(nbits):
            boundary = payload_start + i * window
            timeline.idle_until(boundary + self._round_lead)
            result = self.attack.run_round(
                idle_cycles=self._idle_cycles, timeline=timeline
            )
            bits[i] = int(result.victim_detected)
        return bits


def _result(
    sent: np.ndarray, received: np.ndarray, config: CovertConfig
) -> CovertChannelResult:
    error = bit_error_rate(sent, received)
    raw = config.raw_bps
    return CovertChannelResult(
        sent=sent,
        received=received,
        raw_bps=raw,
        error_rate=error,
        true_bps=true_capacity(raw, error),
    )


def run_devtlb_covert_channel(
    payload_bits: int = 512,
    config: CovertConfig | None = None,
    seed: int = 2026,
    system: CloudSystem | None = None,
    probe_timeout_cycles: int | None = None,
) -> CovertChannelResult:
    """Transmit a random payload over the DevTLB channel and score it.

    *probe_timeout_cycles* bounds each receiver probe's completion poll;
    set it (to roughly a third of the bit window) when the run injects
    submission loss, so a dropped probe is retried inside its own window.
    """
    config = config or CovertConfig()
    if system is None:
        system = CloudSystem(seed=seed)
    handles = system.setup_topology(AttackTopology.E1_SEPARATE_WQ_SHARED_ENGINE)
    attack = DsaDevTlbAttack(
        handles.attacker,
        wq_id=handles.attacker_wq,
        probe_timeout_cycles=probe_timeout_cycles,
    )
    attack.calibrate(samples=60)
    sender = CovertSender(
        handles.victim, handles.victim_wq, config, system.rng, evict_devtlb=True
    )
    receiver = DevTlbCovertReceiver(attack, config)

    payload = random_bits(system.rng, payload_bits)
    start = system.clock.now + us_to_cycles(5 * config.bit_window_us)
    sender.schedule_message(system.timeline, payload, start)
    estimated_start = receiver.synchronize(system.timeline)
    received = receiver.receive(system.timeline, estimated_start, payload_bits)
    return _result(payload, received, config)


def run_swq_covert_channel(
    payload_bits: int = 256,
    config: CovertConfig | None = None,
    seed: int = 2026,
    system: CloudSystem | None = None,
    wq_size: int = 16,
) -> CovertChannelResult:
    """Transmit a random payload over the SWQ channel and score it."""
    config = config or CovertConfig(
        bit_window_us=110.0,
        sender_jitter_us=27.5,
        preamble_ones=16,
        preamble_burst_bits=4,
    )
    if system is None:
        system = CloudSystem(seed=seed)
    handles = system.setup_topology(
        AttackTopology.E0_SHARED_WQ_SHARED_ENGINE, wq_size=wq_size
    )
    anchor_bytes = SwqCovertReceiver.anchor_bytes_for_window(config.bit_window_us)
    attack = DsaSwqAttack(handles.attacker, wq_id=0, anchor_bytes=anchor_bytes)
    sender = CovertSender(
        handles.victim, handles.victim_wq, config, system.rng, evict_devtlb=False
    )
    receiver = SwqCovertReceiver(attack, config)

    payload = random_bits(system.rng, payload_bits)
    start = system.clock.now + us_to_cycles(3 * config.bit_window_us)
    sender.schedule_message(system.timeline, payload, start, preamble_pulses=4)
    estimated_start = receiver.synchronize(system.timeline)
    received = receiver.receive(system.timeline, estimated_start, payload_bits)
    return _result(payload, received, config)

