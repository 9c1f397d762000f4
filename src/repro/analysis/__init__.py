"""Analytical models: urn occupancy, cost calibration, throughput.

* :mod:`repro.analysis.urn` — the closed-form multi-get-hole analysis of
  paper section II-A.
* :mod:`repro.analysis.calibration` — the micro-benchmark cost model of
  the paper's appendix (per-transaction + per-item time, bandwidth cap)
  and the least-squares fit that calibrates it from measurements.
* :mod:`repro.analysis.throughput` — converting simulated transaction
  histograms into system throughput estimates (Fig 3 methodology).
"""
