"""Complex reflection groups, braid orbits of reflection triples, and
Painleve VI parameter bookkeeping with numerical isomonodromy checks."""

from .cyclotomic import CycloNum, root_of_unity, log_root_of_unity
from .linalg3 import Mat3, Spectrum, is_pseudo_reflection, finite_order_spectrum
from .groups import GroupSpec, ReflectionGroup, build_group, enumerate_elements
from .fingerprints import Fingerprint, TripleClass, fingerprint, classify_triples
from .braid import braid_act_quintuple, orbit, orbit_partition, cover_genus
from .params import (
    LambdaMu,
    Theta,
    lambda_mu_of_triple,
    mu_from_degrees,
    theta_map,
    canonical_theta,
    pvi_abcd,
    table1,
    cubic_coeffs,
    f_squared,
    f_hitchin_squared,
    normalize_cubic,
    CubicForm,
)
from .schlesinger import (
    ResidueConfig,
    Trajectory,
    sample_residues,
    diagonalize_gauge,
    integrate_schlesinger,
    reduced_flow_compare,
    eta_pvi_residual,
)

__version__ = "0.1.0"
