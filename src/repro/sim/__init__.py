"""Simulation helpers shared by every layer that simulates.

The paper evaluates the fast source switch on a slot-synchronous simulator:
every peer pulls buffer maps and schedules its requests once per data
scheduling period (``tau = 1.0`` s).  The period loop itself is
:meth:`repro.streaming.session.SwitchSession.step`; this subpackage holds
what the layers around it share:

* :func:`~repro.sim.clock.round_half_up` -- the one rounding policy for
  turning times and expectations into whole counts,
* :mod:`repro.sim.rng` -- deterministic, named random-number streams so
  that every experiment is exactly reproducible from a single seed.
"""

from repro._hub import lazy_hub

__getattr__, __dir__, __all__ = lazy_hub(__name__, {
    "round_half_up": "repro.sim.clock",
    "RandomStreams": "repro.sim.rng",
    "derive_seed": "repro.sim.rng",
})
