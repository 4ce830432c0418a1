"""Readers of the recorded runs: artifacts, bench harness, ledger, report.

Everything that reads what :mod:`repro.obs` records sits here, above the
experiments and the service, so instrumentation never imports upward:

- :mod:`.artifacts` — the one on-disk artifact format (provenance
  envelope, validation, append-only write, load) behind the BENCH,
  FIDELITY and FLEET families;
- :mod:`.bench`, :mod:`.compare` — the benchmark harness and the
  noise-aware comparison of two ``BENCH_*.json`` artifacts;
- :mod:`.fidelity` — the ``FIDELITY_*.json`` scoreboard artifact;
- :mod:`.ledger`, :mod:`.fleet` — the cross-run index and the fleet audit;
- :mod:`.report`, :mod:`.htmlutil` — the self-contained HTML run report;
- :mod:`.benchcli`, :mod:`.reportcli` — the ``repro-bench`` and
  ``repro-report`` entry points.
"""
