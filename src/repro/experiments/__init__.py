"""Experiment drivers reproducing every figure and table in the paper's
evaluation (§7) plus the §4 application statistics.

Each module has a config dataclass (with a scaled-down default that
runs in seconds and, where the paper gives one, a ``paper_scale()``
preset matching its parameters), a module-level trial function, and a
result class built from the run's :class:`repro.engine.ResultSet`.  It
declares its figure once, as a :class:`repro.experiments.report.Figure`
(name, config, paper-scale preset, trial, grid, result class);
``python -m repro.experiments.run`` lists what the modules declare.
The declaration's ``run(config, *, jobs=1, seeds=None)`` — exported as
the module's ``run`` — is one :func:`repro.engine.run_sweep` call, and
returns the result: ``rows()``, ``format_table()``, the paper's
``claims`` about it (:class:`repro.experiments.report.Claim`), and the
``result_set`` for JSON archiving.  ``jobs`` fans the sweep's independent
trials across worker processes with aggregate results identical to a
serial run.  docs/FIGURES.md records every figure's paper-vs-measured
comparison and claim verdicts.

| Paper result | Module |
|---|---|
| Fig 6  RPC latency CDFs           | :mod:`repro.experiments.calibration` |
| Fig 7  group creation latency     | :mod:`repro.experiments.creation_latency` |
| Fig 8  signalled notification     | :mod:`repro.experiments.notification_latency` |
| Fig 9  crash notification CDF     | :mod:`repro.experiments.crash_notification` |
| Fig 10 churn message load         | :mod:`repro.experiments.churn` |
| Fig 11 route loss CDFs            | :mod:`repro.experiments.loss_rates` |
| Fig 12 false positives vs loss    | :mod:`repro.experiments.false_positives` |
| §7.5  steady-state load           | :mod:`repro.experiments.steady_state` |
| §4    SV-tree group sizes         | :mod:`repro.experiments.svtree_stats` |
| §3    agreement latency bound     | :mod:`repro.experiments.agreement` |
| §5.1  topology ablation           | :mod:`repro.experiments.ablation` |
"""
