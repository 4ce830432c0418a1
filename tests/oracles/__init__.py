"""Reference solvers and simulations that the tests use as independent oracles.

Nothing in ``src/`` calls these; they exist so that kept code can be
checked against a second derivation:

- :mod:`oracles.birth_death` solves birth–death balance equations
  numerically (Erlang-B and Engset cross-checks);
- :mod:`oracles.mva` is exact Mean Value Analysis for closed networks
  (the TPC-W throughput laws);
- :mod:`oracles.prometheus` parses and conformance-checks the Prometheus
  text format (the ``/metrics`` and file-exporter round trips);
- :mod:`oracles.engine_event_loss_network` runs the loss network with one
  engine event per departure (the reference for its departure heaps).

Import them as ``from oracles.mva import exact_mva``: the suite's
``tests/conftest.py`` puts ``tests/`` on ``sys.path``.
"""
