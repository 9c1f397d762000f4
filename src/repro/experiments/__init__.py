"""Per-figure reproduction drivers.

Every figure in the paper's evaluation has a module here exposing
``run(...) -> list[ExperimentResult]``; the benchmark harness and the CLI
print the resulting tables.  Default parameters are sized for a laptop
run of a few seconds to a couple of minutes per figure; pass
``scale=1.0`` (and larger request counts) for full paper-scale graphs.

See DESIGN.md section 4 for the experiment index and the expected shapes.
"""
