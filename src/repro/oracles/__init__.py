"""Test oracles: the reference engines the fast ones are checked against.

Every production job has exactly one engine a caller can reach.  Nine
of those engines are trusted because the test suite and the benchmarks
compare them, value for value, with a slower and plainer
implementation of the same job.  The references live here, one module
per layer:

* :mod:`~repro.oracles.fixpoint` -- the monolithic worklist fixpoint,
  oracle of the cone-by-cone solve of :mod:`repro.analysis`;
* :mod:`~repro.oracles.faultsim` -- the big-int evaluator of a scan
  view, its per-fault detection masks and a serial fault-dropping
  campaign on them, oracle of the compiled fault kernel of
  :mod:`repro.dft` (campaign grading, ATPG and dictionary
  diagnosis);
* :mod:`~repro.oracles.sta` -- the per-arc scalar NLDM sweep, oracle of
  the vectorized sweep of :mod:`repro.sta`;
* :mod:`~repro.oracles.bmc` -- the compiled-lane property checker,
  oracle of the CDCL bounded model checker of :mod:`repro.formal`;
* :mod:`~repro.oracles.placement` -- the dict-based anneal, oracle of
  the incremental :class:`repro.physical.AnnealingPlacer`;
* :mod:`~repro.oracles.wafer` -- the per-die wafer loop, oracle of the
  vectorized :func:`repro.manufacturing.simulate_wafer`;
* :mod:`~repro.oracles.verification` -- the event-simulator testbench
  run and divergence observation, oracles of the lane-packed
  :func:`repro.verification.run_regression` and
  :func:`repro.verification.cross_validate_divergence`;
* :mod:`~repro.oracles.coverage` -- the structural observer and the
  event-simulator coverage run, oracles of the word-mask coverage of
  :func:`repro.coverage.close_coverage` and
  :func:`repro.formal.counterexample_to_test`.

Outside :mod:`repro.sim` and this package, the event
:class:`~repro.sim.LogicSimulator` runs only to replay BMC
counterexamples.

Only tests and benchmarks import this package.  No other module of
:mod:`repro` does, so a flow, a service run or a CLI command never
loads it (``tests/test_dependencies.py`` checks both).
"""
