"""Benchmark library: workloads, span recorder, answer checks, statistics."""
