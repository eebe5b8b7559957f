"""Communication-overhead accounting.

Section 5.3 of the paper defines the communication overhead as *"the ratio
of communication cost for buffer information exchange over the real
communication cost for data segments transfer"*.  With a 600-slot buffer the
availability bitmap costs 600 bits, plus 20 bits for the id of the first
buffered segment, i.e. 620 bits per neighbour per scheduling period;
segments carry 30 kbit of media data.  If a node obtained exactly the
``p = 10`` segments it plays per second, the overhead would be
``620 * M / (30 * 1024 * 10) ≈ 1 %``; the measured value is slightly higher
because most nodes' delivery rate cannot quite match the playback rate.

:class:`OverheadAccountant` tracks the byte counters per scheduling period
and cumulatively.  Request messages are tracked too, but, as in the paper,
not charged to the control cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["OverheadSample", "OverheadAccountant"]


@dataclass(frozen=True)
class OverheadSample:
    """Cumulative byte counters at the end of one scheduling period."""

    time: float
    control_bits: int
    request_bits: int
    data_bits: int

    def ratio(self) -> float:
        """Control-to-data ratio; 0.0 when no data has been transferred."""
        if self.data_bits <= 0:
            return 0.0
        return self.control_bits / self.data_bits


@dataclass
class OverheadAccountant:
    """Accumulates control and data traffic volumes.

    Attributes
    ----------
    control_bits:
        Cumulative buffer-map exchange bits.
    request_bits:
        Cumulative request message bits (not part of the paper's ratio).
    data_bits:
        Cumulative delivered segment payload bits.
    samples:
        Per-period snapshots (appended by :meth:`close_period`).
    """

    control_bits: int = 0
    request_bits: int = 0
    data_bits: int = 0
    samples: List[OverheadSample] = field(default_factory=list)

    def add_control(self, bits: int) -> None:
        """Charge buffer-map exchange traffic."""
        if bits < 0:
            raise ValueError("bits must be non-negative")
        self.control_bits += int(bits)

    def add_request(self, bits: int) -> None:
        """Charge request message traffic."""
        if bits < 0:
            raise ValueError("bits must be non-negative")
        self.request_bits += int(bits)

    def add_data(self, bits: int) -> None:
        """Charge delivered segment payload traffic."""
        if bits < 0:
            raise ValueError("bits must be non-negative")
        self.data_bits += int(bits)

    def close_period(self, time: float) -> OverheadSample:
        """Record the cumulative counters at the end of a period."""
        sample = OverheadSample(
            time=float(time),
            control_bits=self.control_bits,
            request_bits=self.request_bits,
            data_bits=self.data_bits,
        )
        self.samples.append(sample)
        return sample

    def overhead_ratio(self) -> float:
        """Cumulative control-to-data ratio (the paper's metric 3)."""
        if self.data_bits <= 0:
            return 0.0
        return self.control_bits / self.data_bits

    def ratio_series(self) -> List[tuple[float, float]]:
        """``(time, cumulative overhead ratio)`` per recorded period."""
        return [(s.time, s.ratio()) for s in self.samples]

    def last_sample(self) -> Optional[OverheadSample]:
        """The most recent period snapshot, or ``None``."""
        return self.samples[-1] if self.samples else None
