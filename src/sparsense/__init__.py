"""Greedy sparse recovery with a blind stopping rule, closed-form recovery
bounds, and a Monte Carlo benchmark harness for compressive spectrum sensing."""

__version__ = "0.1.0"
