"""Text-mode visualization: mesh maps and line plots.

No plotting backend is available offline, so figures render as ASCII line
plots and meshes as character maps -- enough to eyeball block shapes, MCC
staircases and routed paths in a terminal or a test log.
"""

from repro.viz.ascii_art import render_mesh, render_scenario
from repro.viz.plots import line_plot

__all__ = ["line_plot", "render_mesh", "render_scenario"]
