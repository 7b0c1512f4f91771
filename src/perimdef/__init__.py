"""Sequential perimeter-defense game: simulator, oracles, and analytics.

Importing the package imports none of its modules.  Each public name is
imported from its module on first access and then kept in the package's
namespace; the modules themselves (``perimdef.engine`` and the rest) also
resolve on first access.  The package needs only the standard library,
and the sequences it returns are lists.
"""

__version__ = "0.1.0"

# The public names, by the module that defines them.
_NAMES = {
    "geometry": (
        "ApolloniusCircle", "AssumptionViolated", "CircleClass", "GameParams", "apollonius", "assumption_clauses",
        "classify", "validate_params",
    ),
    "strategy": (
        "EngagementCandidate", "EngagementSolution", "capture_circle_radius", "capture_circle_solution",
        "engagement_candidate", "engagement_domain", "evasion_point", "guarded_arc", "optimize_engagement",
        "theta_max_at",
    ),
    "engine": (
        "AgreementReport", "SessionRecord", "Trajectory", "play_game", "run_session", "simulate_kinematic",
        "uniform_angle", "verify_outcome_agreement", "wrap_angle",
    ),
    "analytics": (
        "PrefixStats", "SweepRow", "aggregate_sessions", "asymptotic_percentage", "expected_percentage",
        "expected_resets", "markov_oracle", "p_star", "resets_tail_all", "sweep",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}
_MODULES = (*_NAMES, "cli")

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing a module binds it in this namespace.  ``__import__`` is the
    # import statement's path, which ``python -X importtime`` reports;
    # ``importlib.import_module`` is not.
    __import__(f"{__name__}.{module}")
    if module != name:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
