"""Sequential perimeter-defense game: simulator, oracles, and analytics.

numpy is imported inside the functions that use it (the session hash and
the array statistics), so importing the package does not load it.
"""

from .geometry import (
    ApolloniusCircle,
    AssumptionViolated,
    CircleClass,
    GameParams,
    Point2,
    apollonius,
    assumption_clauses,
    classify,
    validate_params,
)
from .strategy import (
    AtCenter,
    DefenderState,
    EngagementCandidate,
    EngagementSolution,
    OnCaptureCircle,
    capture_circle_radius,
    capture_circle_solution,
    engagement_candidate,
    engagement_domain,
    engagement_theta,
    evasion_point,
    guarded_arc,
    optimize_engagement,
    sufficiency_holds,
    theta_max_at,
)
from .engine import (
    AgreementReport,
    GameOutcome,
    Phase,
    SessionRecord,
    Trajectory,
    play_game,
    run_session,
    simulate_kinematic,
    uniform_angle,
    verify_outcome_agreement,
    wrap_angle,
)
from .analytics import (
    LevelSetFit,
    PrefixStats,
    SweepRow,
    aggregate_sessions,
    asymptotic_percentage,
    expected_percentage,
    expected_resets,
    level_set_slope,
    markov_oracle,
    p_star,
    resets_tail_all,
    sweep,
    total_captures_pmf,
    travel_pmf,
)

__version__ = "0.1.0"
