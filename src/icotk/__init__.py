"""icotk: exact constructions on the icosahedron surface.

Sparse rational polynomial algebra, a small Groebner engine, the tau/rho
birational maps between the plane and the surface {sigma_2 = sigma_4 = 0},
ico models of plane curves with their degeneracy invariants, the
criterion-(tau) decision procedure, exact log-scale height certificates, and
the generalized-Fermat scanning pipeline.

Importing the package runs none of them.  Each library submodule is
registered in ``sys.modules`` behind ``importlib.util.LazyLoader``, so its
code is compiled and run on the first attribute access, and a command pays
only for the modules it reaches.  The names in ``_EXPORTS`` resolve on
first use through the module ``__getattr__`` (PEP 562), so
``from icotk import check_tau`` loads ``plane_curves`` and what it imports.
``icotk.cli`` is not registered: ``python -m icotk.cli`` runs it as
``__main__``, and runpy warns about a module already in ``sys.modules``.

Before Python 3.12, ``LazyLoader`` is not thread-safe: a thread that
touches a module while another thread's first access is still running it
can find the module half-run and get an AttributeError.  A threaded
program reads one attribute of each module it uses (``icotk.groebner.LEX``)
before it starts its threads.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "algebra": ("P2", "P4", "Poly", "Ring", "poly_parse"),
    "integers": ("ProjPoint", "factorize", "int_radical"),
    "errors": (
        "BasePointError",
        "BudgetExceededError",
        "FactorBudgetError",
        "IcotkError",
        "NotDivisibleError",
        "NotOnSurfaceError",
        "ParseError",
    ),
    "config": ("DEFAULT_FACTOR_BUDGET", "DEFAULT_GB_BUDGET", "FactorBudget", "GroebnerBudget"),
    "groebner": (
        "GREVLEX",
        "LEX",
        "Ideal",
        "arithmetic_genus",
        "dim_degree",
        "hilbert_function",
        "normal_form",
    ),
    "ico_surface": (
        "QuadraticPoint",
        "fixed_geometry",
        "rho_point",
        "tau_point",
        "ttau_points",
        "verify_identities",
    ),
    "ico_models": (
        "IcoModel",
        "basis_An",
        "general_model",
        "genus_general",
        "is_curve",
        "is_degenerate",
        "model_ideal",
        "nu_f",
    ),
    "plane_curves": (
        "PlaneCurve",
        "TauReport",
        "check_tau",
        "containing_model",
        "family_curve",
        "image_ideal",
        "pullback_tau",
        "tau_witness",
    ),
    "heights": (
        "HeightCertificate",
        "LogBound",
        "PointHeight",
        "bound_corD",
        "bound_corF",
        "bound_pullback",
        "bound_thmC",
        "bound_thmE",
        "point_height",
    ),
    "fermat": (
        "FermatInstance",
        "ScanReport",
        "UnitEquation",
        "scan_instance",
        "scan_surface",
        "sunit_bounded",
        "unit_reduce",
        "z_member",
        "z_triviality_scan",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def _register(name: str):
    """icotk.<name>, put in sys.modules but not yet executed."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in (*_EXPORTS, "binaryforms"):  # binaryforms exports nothing
    globals()[_name] = _register(_name)
del _name


def __getattr__(name: str):
    """The export ``name`` from the module ``_EXPORTS`` names.

    The first lookup is kept in the package namespace: later lookups find
    it there, and a patch of ``icotk.<name>`` (the benchmark's tracer makes
    one) can be made and undone.  So a patch of the defining module that is
    in force at the first lookup is kept in ``icotk`` and outlives its undo;
    the program itself reads the defining module (``plane_curves.check_tau``)."""
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[module], name)
    return value
