"""Discrete-event simulation substrate.

The paper evaluates the fast source switch algorithm on an ad-hoc simulator
of a pull-based (gossip) P2P streaming system with a data scheduling period
of ``tau = 1.0`` seconds.  This subpackage provides the generic simulation
machinery that the streaming substrate (:mod:`repro.streaming`) is built on:

* :class:`~repro.sim.clock.SimulationClock` -- the virtual time source,
* :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.EventQueue`
  -- the time-ordered event queue,
* :class:`~repro.sim.engine.SimulationEngine` -- the event loop, with
  support for one-shot and periodic callbacks (processes),
* :class:`~repro.sim.process.PeriodicProcess` -- the scheduling-period
  abstraction used by peers, sources and the churn model,
* :mod:`repro.sim.rng` -- deterministic, named random-number streams so
  that every experiment is exactly reproducible from a single seed.

The engine is deliberately minimal and dependency-free: the streaming
workload drives it with one periodic process per logical activity (rounds,
churn, metric sampling) rather than one event per packet, which keeps
laptop-scale runs of thousands of peers tractable (see the scaling notes in
``DESIGN.md``).
"""

from repro._hub import lazy_hub

__getattr__, __dir__, __all__ = lazy_hub(__name__, {
    "SimulationClock": "repro.sim.clock",
    "round_half_up": "repro.sim.clock",
    "SimulationEngine": "repro.sim.engine",
    "StopSimulation": "repro.sim.engine",
    "Event": "repro.sim.events",
    "EventQueue": "repro.sim.events",
    "PeriodicProcess": "repro.sim.process",
    "RandomStreams": "repro.sim.rng",
    "derive_seed": "repro.sim.rng",
})
