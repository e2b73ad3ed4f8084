"""Write grid13.csv: sigma = diag(v, v) on a 13 x 13 lattice over
x in [0, 4], v in [0.02, 3].

sigma is linear in v and constant in x, so bilinear interpolation
reproduces it exactly and the grid model has the same metric as
hull_white_simple; its exits can be checked against that closed form.

Run from the repository root:  python3 perfbench/data/make_grid.py
"""

from pathlib import Path

import numpy as np

xs = np.linspace(0.0, 4.0, 13)
vs = np.linspace(0.02, 3.0, 13)
rows = ["x,v,s11,s12,s21,s22"]
rows += [f"{x!r},{v!r},{v!r},0.0,0.0,{v!r}" for x in xs.tolist() for v in vs.tolist()]
Path(__file__).with_name("grid13.csv").write_text("\n".join(rows) + "\n")
