"""Paper table/figure regeneration and ablations over the pipeline.

``repro.analysis.tables`` and ``repro.analysis.figures`` contain one
function per table and figure of the paper's evaluation; each takes a
:class:`~repro.pipeline.cells.CellPipeline` and returns the structured
rows/series, which can render themselves as ASCII.  The heavy lifting
(reorder → trace → simulate → model) lives in the stage-graph pipeline
(:mod:`repro.pipeline`), which memoizes stage outputs in the
content-addressed artifact store so that reruns and the benchmark suite
stay fast; :mod:`repro.analysis.experiments` turns its cells into
speed-ups.
"""
