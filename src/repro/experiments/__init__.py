"""Experiment harness: configurations, runners, sweeps and figure generators.

This subpackage turns the simulator into the paper's evaluation:

* :mod:`repro.experiments.config` -- named parameter sets (the paper's
  defaults, the reduced laptop-scale defaults, the size sweeps of Figures
  6--8 and 10--12);
* :mod:`repro.experiments.runner` -- run one configuration, or a paired
  fast-vs-normal comparison on identical random draws;
* :mod:`repro.experiments.sweeps` -- network-size sweeps with caching so
  the figure generators that share a sweep (6/7/8 and 10/11/12) do not
  re-simulate;
* :mod:`repro.experiments.store` -- the persistent on-disk result store
  (a key -> document map keyed by configuration fingerprints, one table of
  document kinds, one replay-or-execute loop) that makes every experiment
  incremental and turns figure regeneration into replay;
* :mod:`repro.experiments.parallel` -- deterministic process-pool fan-out
  of ``(size, repetition)`` sweep pairs, bit-identical to serial runs;
* :mod:`repro.experiments.figures` -- the builders behind the paper's
  figures (figure 2, the ratio track, three views of the size sweep),
  returning the plotted series/rows as plain data (nothing here depends on
  matplotlib); :mod:`repro.figures` registers them in the one figure table;
* :mod:`repro.experiments.scenarios` -- the named end-to-end scenarios used
  by the examples and the CLI.
"""

from repro._hub import lazy_hub

__getattr__, __dir__, __all__ = lazy_hub(__name__, {
    "ResultStore": "repro.experiments.store",
    "MissingResultError": "repro.experiments.store",
    "pair_fingerprint": "repro.experiments.store",
    "sweep_fingerprint": "repro.experiments.store",
    "ParallelSweepRunner": "repro.experiments.parallel",
    "SweepTask": "repro.experiments.parallel",
    "build_sweep_tasks": "repro.experiments.parallel",
    "ExperimentDefaults": "repro.experiments.config",
    "make_session_config": "repro.experiments.config",
    "PAPER_SWEEP_SIZES": "repro.experiments.config",
    "BENCH_SWEEP_SIZES": "repro.experiments.config",
    "run_single": "repro.experiments.runner",
    "run_pair": "repro.experiments.runner",
    "PairedRunResult": "repro.experiments.runner",
    "run_size_sweep": "repro.experiments.sweeps",
    "SizeSweepResult": "repro.experiments.sweeps",
    "SweepPoint": "repro.experiments.sweeps",
    "FigureResult": "repro.experiments.figures",
    "figure2": "repro.experiments.figures",
    "generate_figure": "repro.experiments.figures",
})
