"""Single-chip FMCW radar place recognition pipeline.

Simulation of IF sample cubes, range-azimuth heatmap generation, rotation
cycle mosaicking, a triplet-trained convolutional place encoder, and exact
retrieval with recall@N / maxF1 evaluation.  The package is used through
its modules, e.g. ``from radarplace import synth`` or ``radarplace.cli``.
"""
