"""Experiment harness: configurations, paired runs, sweeps and the result store.

This subpackage turns the simulator into the paper's evaluation:

* :mod:`repro.experiments.config` -- named parameter sets (the paper's
  defaults, the reduced laptop-scale defaults, the size sweeps of Figures
  6--8 and 10--12);
* :mod:`repro.experiments.runner` -- run one configuration, or a paired
  fast-vs-normal comparison on identical random draws;
* :mod:`repro.experiments.sweeps` -- network-size sweeps, fanned out over
  the worker pool bit-identically to the serial run, with caching so the
  figures that share a sweep (6/7/8 and 10/11/12) do not re-simulate;
* :mod:`repro.experiments.store` -- the persistent on-disk result store
  (a key -> document map keyed by configuration fingerprints, one table of
  document kinds, one replay-or-execute loop) that makes every experiment
  incremental and turns figure regeneration into replay.
"""

from repro._hub import lazy_hub

__getattr__, __dir__, __all__ = lazy_hub(__name__, {
    "ResultStore": "repro.experiments.store",
    "MissingResultError": "repro.experiments.store",
    "pair_fingerprint": "repro.experiments.store",
    "sweep_fingerprint": "repro.experiments.store",
    "make_session_config": "repro.experiments.config",
    "PAPER_SWEEP_SIZES": "repro.experiments.config",
    "BENCH_SWEEP_SIZES": "repro.experiments.config",
    "run_single": "repro.experiments.runner",
    "run_pair": "repro.experiments.runner",
    "PairedRunResult": "repro.experiments.runner",
    "run_size_sweep": "repro.experiments.sweeps",
    "SizeSweepResult": "repro.experiments.sweeps",
    "SweepPoint": "repro.experiments.sweeps",
})
