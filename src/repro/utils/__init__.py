"""Shared low-level utilities: bitsets, RNG plumbing, tables, histograms."""
