"""Property tests over drawn inputs (hypothesis, derandomized, no example
database, its cache directory a temporary one, so every run draws the same
examples and writes no file in the checkout).

The plan's per-class tail is at least the exact dropped part, summed in
mpmath, on small random documents, Jordan-block twists included. On
random dominant weights of B_n and D_n, n <= 6, the Weyl dimension is the
sum of the multiplicities, and each dominant weight's orbit has
|W| / |stabilizer| weights."""

import atexit
import math
import shutil
import tempfile
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from zetaflow import GroupData, LengthSpectrum
from zetaflow.chars import weight_multiplicities
from zetaflow.weights import weyl_dim, weyl_orbit

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)

# hypothesis caches the literals it reads from the package's source in its
# home directory, .hypothesis under the working directory unless set, from
# the collection of these tests on, whatever the example database: a
# temporary directory removed at exit holds them instead
_HOME = tempfile.mkdtemp(prefix="hypothesis-")
atexit.register(shutil.rmtree, _HOME, ignore_errors=True)
set_hypothesis_home_dir(_HOME)


@st.composite
def documents(draw):
    """(spectrum, lmax): one to three classes at d = 3 or 5, each twist a
    random matrix of norm up to about 2 or a Jordan block [[lam, 1], [0, lam]]."""
    n = draw(st.sampled_from([1, 2]))
    dim_chi = draw(st.sampled_from([1, 2]))
    count = draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0)
    l0, angles, chi = [], [], []
    for _ in range(count):
        l0.append(draw(st.floats(0.3, 3.0)))
        angles.append([draw(st.floats(0.0, 6.28)) for _ in range(n)])
        if dim_chi == 2 and draw(st.booleans()):
            lam = draw(st.floats(0.5, 1.5))
            chi.append([[lam, 1.0], [0.0, lam]])
        else:
            chi.append([[draw(unit) for _ in range(dim_chi)] for _ in range(dim_chi)])
    ls = LengthSpectrum(GroupData(2 * n + 1), l0, angles, np.array(chi), 1.0, dim_chi)
    return ls, draw(st.floats(0.5, 6.0))


def _dropped(ls: LengthSpectrum, plan, a: float) -> float:
    """sum over the classes and their powers j > J_c of
    |tr chi^j| e^{-a j l0} / (j det_j), in mpmath: the Selberg log's
    dropped part at Re s + |rho| = a, bounded term by term. Each class is
    summed until its majorant dim_chi q_c^j, q_c = r_c e^{-a l0_c}, falls
    below 1e-30 of its value at j = J_c + 1."""
    mp.mp.dps = 40
    total = mp.mpf(0)
    counts = np.bincount(plan.class_index, minlength=ls.l0.size)
    for c, (l0, theta, chi) in enumerate(zip(ls.l0, ls.angles, ls.chi)):
        q = mp.mpf(float(ls.twist_norms[c])) * mp.exp(-a * mp.mpf(l0))
        first = int(counts[c]) + 1
        chi = mp.matrix(chi.tolist())
        power = chi ** first
        for j in range(first, first + int(mp.ceil(-30 / mp.log10(q))) + 1):
            e = mp.exp(-j * mp.mpf(l0))
            det = mp.fprod(1 - 2 * e * mp.cos(j * mp.mpf(t)) + e * e for t in theta)
            trace = sum(power[k, k] for k in range(chi.rows))
            total += abs(trace) * mp.exp(-a * j * mp.mpf(l0)) / (j * det)
            power = power * chi
    return float(total)


@PROPERTY
@given(documents(), st.floats(0.2, 2.0))
def test_the_class_tail_covers_the_exact_dropped_part(document, margin):
    ls, lmax = document
    plan = ls.power_table(lmax)
    # a past every class's q_c = r_c e^{-a l0_c} = 1, so each class has a tail
    a = float(np.max(np.log(ls.twist_norms) / ls.l0)) + margin
    tail = ls.class_tail(lmax, a, "inv_j", 1.0)
    # the bound is a float sum of float terms: rounding of a few units
    assert tail >= _dropped(ls, plan, a) * (1.0 - 1e-12)


@st.composite
def dominant_weights(draw):
    """(family, lam): a dominant weight of B_n or D_n, n <= 6, integral or
    half-integral, with small coordinates so its weight system stays small."""
    family = draw(st.sampled_from(["B", "D"]))
    n = draw(st.integers(1, 6))
    top = 3 if n <= 3 else 1
    half = Fraction(draw(st.sampled_from([0, 1])), 2)
    coords = sorted((draw(st.integers(0, top)) + half for _ in range(n)), reverse=True)
    if family == "D" and draw(st.booleans()):
        coords[-1] = -coords[-1]
    return family, tuple(coords)


@PROPERTY
@given(dominant_weights())
def test_the_weyl_dimension_is_the_sum_of_the_multiplicities(weight):
    family, lam = weight
    assert weyl_dim(lam, family) == sum(weight_multiplicities(family, lam).values())


@PROPERTY
@given(dominant_weights())
def test_an_orbit_has_the_group_order_over_the_stabilizer_weights(weight):
    family, lam = weight
    n = len(lam)
    order = 2**n * math.factorial(n) if family == "B" else 2 ** (n - 1) * math.factorial(n)
    # the signed permutations fixing lam: any permutation of the entries of
    # equal absolute value, signed to match, and any signs on the zero
    # entries; D_n keeps every one of them unless lam has a zero entry, whose
    # sign change is odd, and then half
    zeros = lam.count(0)
    sizes = Counter(abs(c) for c in lam).values()
    stabilizer = math.prod(math.factorial(m) for m in sizes) * 2**zeros
    if family == "D" and zeros:
        stabilizer //= 2
    assert len(weyl_orbit(lam, family)) * stabilizer == order
