"""Benchmark harness for the pointideal engines; see README.md."""
