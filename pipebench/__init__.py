"""Benchmark of the DISTINCT pipeline: workloads, traced run, per-layer ledger."""
