"""Complex reflection groups, braid orbits of reflection triples, and
Painleve VI parameter bookkeeping with numerical isomonodromy checks."""

from .cyclotomic import CycloNum, root_of_unity, log_root_of_unity
from .linalg3 import Mat3, is_pseudo_reflection, finite_order_spectrum
from .groups import GroupSpec, ReflectionGroup, build_group, enumerate_elements
from .fingerprints import Fingerprint, TripleClass, fingerprint, classify_triples
from .braid import braid_act_quintuple, orbit, orbit_partition, cover_genus
from .params import (
    LambdaMu,
    Theta,
    lambda_mu_of_triple,
    theta_map,
    canonical_theta,
    pvi_abcd,
    table1,
    cubic_coeffs,
    f_squared,
    f_hitchin_squared,
)

# The floating-point layer (numpy) loads on first use, so that the exact
# layer and the CLI's exact commands import no numpy (PEP 562).
_FLOAT_LAYER = frozenset((
    "ResidueConfig",
    "Trajectory",
    "sample_residues",
    "diagonalize_gauge",
    "integrate_schlesinger",
    "reduced_flow_compare",
    "eta_pvi_residual",
))


def __getattr__(name):
    if name in _FLOAT_LAYER:
        from . import schlesinger
        return getattr(schlesinger, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
