"""The simulator's rounding policy for simulated time.

Time ``0.0`` is, by convention of the paper's evaluation, the instant at
which the old source ``S1`` stops generating new segments and the new source
``S2`` starts; a simulated warm-up therefore runs at negative times.
"""

from __future__ import annotations

import math


def round_half_up(value: float) -> int:
    """Deterministic round-half-up: ``floor(value + 0.5)``.

    The simulator's single rounding policy for turning expectations and
    time ratios into whole counts (churn sizes, periods per phase, period
    indices).  Python's ``round`` uses banker's rounding (``round(0.5) ==
    0``), which makes small populations churn never and is sensitive to
    the parity of the integral part; this policy is monotone in ``value``
    and therefore safe to reproduce across call sites.

    Examples
    --------
    >>> round_half_up(0.5), round_half_up(1.5), round_half_up(2.5)
    (1, 2, 3)
    >>> round_half_up(0.49)
    0
    """
    return math.floor(value + 0.5)
