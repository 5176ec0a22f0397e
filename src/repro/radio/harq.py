"""HARQ/ARQ retransmission model for the radio access network.

Sec. 4.2 rules the RAN out as the source of the TCP anomaly: the MAC layer
retransmits failed transport blocks (threshold 32 per the PDSCH
configuration), every loss the authors observe recovers within 4 attempts
on 4G and 2 on 5G (Fig. 10), so no loss leaks above the RLC layer.  This
module reproduces that argument quantitatively.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro import instruments

__all__ = ["HarqProcess", "HarqStats", "RETRANSMISSION_THRESHOLD"]

#: Maximum retransmissions before the MAC gives up, identified from the
#: PDSCH configuration messages (Sec. 4.2).
RETRANSMISSION_THRESHOLD = 32


@dataclass(frozen=True)
class HarqStats:
    """Aggregate outcome of a HARQ simulation run."""

    transport_blocks: int
    retransmission_counts: dict[int, int]
    residual_losses: int

    @property
    def block_error_rate(self) -> float:
        """Fraction of blocks needing at least one retransmission."""
        retransmitted = sum(
            count for attempts, count in self.retransmission_counts.items() if attempts > 0
        )
        return retransmitted / self.transport_blocks if self.transport_blocks else 0.0

    @property
    def max_retransmissions(self) -> int:
        """Deepest retransmission chain observed."""
        observed = [k for k, v in self.retransmission_counts.items() if v > 0]
        return max(observed) if observed else 0

    def retransmission_rate(self, attempts: int) -> float:
        """Fraction of blocks that needed exactly ``attempts`` retransmissions."""
        if self.transport_blocks == 0:
            return 0.0
        return self.retransmission_counts.get(attempts, 0) / self.transport_blocks


class HarqProcess:
    """Simulates chase-combining HARQ over a block-fading link.

    Each retransmission benefits from soft combining, so the per-attempt
    error probability decays geometrically: attempt ``k`` fails with
    probability ``initial_bler * combining_gain**k``.

    The paper's links show first-attempt BLER around 10% — the operating
    point link adaptation targets — with 5G's wider-band channel estimation
    and faster feedback giving it a stronger combining gain, which is why
    its retransmission chains are shorter (Fig. 10).
    """

    def __init__(
        self,
        initial_bler: float,
        combining_gain: float,
        rng: np.random.Generator,
        threshold: int = RETRANSMISSION_THRESHOLD,
    ) -> None:
        if not 0.0 <= initial_bler < 1.0:
            raise ValueError(f"initial_bler must be in [0, 1), got {initial_bler}")
        if not 0.0 < combining_gain < 1.0:
            raise ValueError(f"combining_gain must be in (0, 1), got {combining_gain}")
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.initial_bler = initial_bler
        self.combining_gain = combining_gain
        self.threshold = threshold
        self._rng = rng
        self._tracer = instruments.current().tracer

    @classmethod
    def for_generation(
        cls, generation: int, rng: np.random.Generator, initial_bler: float = 0.10
    ) -> "HarqProcess":
        """Default processes: 5G combines harder than 4G."""
        gain = 0.02 if generation == 5 else 0.12
        return cls(initial_bler=initial_bler, combining_gain=gain, rng=rng)

    def transmit_block(self) -> int:
        """Send one transport block; return the retransmissions needed.

        Returns:
            The number of retransmissions (0 = first attempt succeeded), or
            ``threshold`` if the block was abandoned (residual loss).
        """
        p = self.initial_bler
        for attempt in range(self.threshold):
            if self._rng.random() >= p:
                return attempt
            p *= self.combining_gain
        return self.threshold

    def run(self, transport_blocks: int) -> HarqStats:
        """Transmit ``transport_blocks`` blocks and aggregate statistics."""
        if transport_blocks <= 0:
            raise ValueError(f"transport_blocks must be positive, got {transport_blocks}")
        counts: Counter[int] = Counter()
        residual = 0
        tracer = self._tracer
        traced = tracer.enabled  # one branch per block on the hot path
        for _ in range(transport_blocks):
            attempts = self.transmit_block()
            if traced:
                # HARQ has no virtual clock; samples are indexed per block.
                tracer.counter("harq.retx", None, float(attempts))
                if attempts:
                    tracer.bump("harq.nack", None, float(attempts))
            if attempts >= self.threshold:
                residual += 1
            else:
                counts[attempts] += 1
        return HarqStats(
            transport_blocks=transport_blocks,
            retransmission_counts=dict(counts),
            residual_losses=residual,
        )

    def abandonment_probability(self) -> float:
        """Analytic probability a block exhausts all retransmissions.

        For a 50%-loss link without combining this is 0.5**32 ≈ 2.3e-10,
        the figure the paper quotes to dismiss RAN loss.
        """
        p = self.initial_bler
        prob = 1.0
        for _ in range(self.threshold):
            prob *= p
            p *= self.combining_gain
        return prob
