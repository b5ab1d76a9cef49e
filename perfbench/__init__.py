"""Benchmark of flowbalance.run_experiment; see README.md."""
