"""Benchmark internals: workloads, tracing, statistics, digests, host."""
