"""icotk: exact constructions on the icosahedron surface.

Sparse rational polynomial algebra, a small Groebner engine, the tau/rho
birational maps between the plane and the surface {sigma_2 = sigma_4 = 0},
ico models of plane curves with their degeneracy invariants, the
criterion-(tau) decision procedure, exact log-scale height certificates, and
the generalized-Fermat scanning pipeline.
"""

__version__ = "0.1.0"

from .algebra import P2, P4, Poly, Ring, factorize, int_radical, poly_parse
from .errors import (
    BasePointError,
    BudgetExceededError,
    FactorBudgetError,
    IcotkError,
    NotDivisibleError,
    NotOnSurfaceError,
    ParseError,
)
from .config import DEFAULT_FACTOR_BUDGET, DEFAULT_GB_BUDGET, FactorBudget, GroebnerBudget
from .groebner import (
    GREVLEX,
    LEX,
    Ideal,
    arithmetic_genus,
    dim_degree,
    hilbert_function,
    normal_form,
)
from .ico_surface import (
    ProjPoint,
    QuadraticPoint,
    fixed_geometry,
    rho_point,
    tau_point,
    ttau_points,
    verify_identities,
)
from .ico_models import (
    IcoModel,
    basis_An,
    general_model,
    genus_general,
    is_curve,
    is_degenerate,
    model_ideal,
    nu_f,
)
from .plane_curves import (
    PlaneCurve,
    TauReport,
    check_tau,
    containing_model,
    family_curve,
    image_ideal,
    pullback_tau,
    tau_witness,
)
from .heights import (
    HeightCertificate,
    LogBound,
    PointHeight,
    bound_corD,
    bound_corF,
    bound_pullback,
    bound_thmC,
    bound_thmE,
    point_height,
)
from .fermat import (
    FermatInstance,
    ScanReport,
    UnitEquation,
    scan_instance,
    scan_surface,
    sunit_bounded,
    unit_reduce,
    z_member,
    z_triviality_scan,
)
