"""Placeholder for the retired fleet-metrics registry.

The registry is gone: each fact it recorded lives in the run's own
records (``QuantumRecord``, the trace events, ``CellResult`` and the
Runner's ``cells:`` line; see ``docs/OBSERVABILITY.md``). This module
holds nothing and exists only because ``perfbench/run.py`` still
imports it when it times a cold start; once that import is dropped,
delete this file.
"""
