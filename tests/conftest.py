import cmath
from types import SimpleNamespace

import numpy as np
import pytest

from lyaplab import fuchsian, linrep


@pytest.fixture(scope="session")
def tri334():
    """(domain, generators, relations) for the (3,3,4) triangle group."""
    return fuchsian.build_group(fuchsian.GroupSpec.triangle(3, 3, 4))


@pytest.fixture(scope="session")
def genus2():
    return fuchsian.build_group(fuchsian.GroupSpec.surface(2))


@pytest.fixture(scope="session")
def fuchs334(tri334):
    dom, gens, rels = tri334
    return linrep.uniformizing_rep(gens, rels, "fuchsian")


@pytest.fixture(scope="session")
def fuchs_g2(genus2):
    dom, gens, rels = genus2
    return linrep.uniformizing_rep(gens, rels, "fuchsian-g2")


def mobius_of_word(gens, word):
    from lyaplab.hypgeo import Mobius

    m = Mobius.identity()
    for s in word:
        g = gens[abs(s) - 1]
        m = m @ (g if s > 0 else g.inv())
    return m


def random_sl2(rng):
    """A not-too-degenerate random real unimodular matrix."""
    while True:
        a = rng.normal(size=(2, 2))
        d = np.linalg.det(a)
        if abs(d) > 0.1:
            if d < 0:
                a = a[[1, 0]]
                d = -d
            return a / np.sqrt(d)


def coding(dom, ut, T):
    """The crossings of the geodesic from ut up to time T, collected from
    fuchsian.iter_crossings: times, signed generators and the number of
    direction perturbations."""
    perturbs = []
    out = list(fuchsian.iter_crossings(dom, ut, T, perturb_log=perturbs))
    return SimpleNamespace(
        times=np.array([t for t, _ in out], dtype=float),
        gens=np.array([g for _, g in out], dtype=np.int64),
        perturbations=len(perturbs),
    )


def deriv_arg(m, z):
    """arg of the derivative 1/(cz+d)^2 of the Mobius map m at z; it rotates
    tangent angles."""
    a, b, c, d = m.mat.ravel()
    return -2.0 * cmath.phase(c * z + d)


def save_rep(rep, path):
    with open(path, "w") as fh:
        fh.write(linrep.format_rep_text(rep))
