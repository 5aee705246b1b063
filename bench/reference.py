"""Reference job: a fixed piece of work that does not use zetaflow.

The speed of a shared machine drifts by +-15% over tens of seconds, and
every CLI job drifts with it. The benchmark runs this job right before
each CLI job, so a pass's job time divided by the reference time next to
it (``wall_rel``) cancels most of that drift. It has the shape of a CLI
job: a fresh interpreter that imports numpy, then a Python loop of calls
on tiny arrays (as in the twist certificate), vectorised kernels (as in the
series terms) and interpreted arithmetic. Change nothing here: every
``wall_rel`` ever measured is in units of this job.
"""

import math

import numpy as np

mats = np.random.default_rng(0).normal(size=(2000, 2, 2))
total = 0.0
for m in mats:
    total += float(np.linalg.norm(m, 2))
x = np.linspace(0.0, 1.0, 100_000)
for _ in range(10):
    total += float(np.exp(-x).sum())
for i in range(50_000):
    total += math.sqrt(i)
