"""AvalonPlay: a seven-player hidden-role game benchmark.

A deterministic rules engine for the Resistance: Avalon seven-player
setup, pluggable seat policies (random, scripted evil, possible-worlds
deduction, LLM-backed prompting strategies including a sandboxed
code-action loop), durable JSONL game records with replay verification,
seeded tournaments with exact-fraction metrics, and a transcript
consistency analyzer.
"""

from .agents import (
    AgentSpec,
    Assassinate,
    Discuss,
    Observation,
    QuestVote,
    SelectTeam,
    TeamVote,
    make_agent,
)
from .analyzer import AnalysisReport, ConsistencyFinding, analyze_record, analyze_records
from .deduction import (
    BeliefState,
    Constraint,
    ConstraintSet,
    ContradictionError,
    belief,
    brute_force_oracle,
    select_team,
)
from .game import (
    GameConfig,
    GameEngine,
    GameOutcome,
    Phase,
    Role,
    Side,
)
from .knowledge import KnowledgeView, RoleAssignment, deal_roles, knowledge_for
from .llm import HttpLLMClient, LLMClient, MockLLM, MockRule, TransportError
from .records import (
    GameRecord,
    RecordFormatError,
    RecordSchemaError,
    ReplayMismatch,
    load_record,
    replay,
    write_record,
)
from .runner import (
    MetricsReport,
    TournamentConfig,
    TournamentResult,
    compute_metrics,
    run_game,
    run_tournament,
)

__version__ = "0.1.0"

__all__ = [
    "AgentSpec",
    "AnalysisReport",
    "Assassinate",
    "BeliefState",
    "ConsistencyFinding",
    "Constraint",
    "ConstraintSet",
    "ContradictionError",
    "Discuss",
    "GameConfig",
    "GameEngine",
    "GameOutcome",
    "GameRecord",
    "HttpLLMClient",
    "KnowledgeView",
    "LLMClient",
    "MetricsReport",
    "MockLLM",
    "MockRule",
    "Observation",
    "Phase",
    "QuestVote",
    "RecordFormatError",
    "RecordSchemaError",
    "ReplayMismatch",
    "Role",
    "RoleAssignment",
    "SelectTeam",
    "Side",
    "TeamVote",
    "TournamentConfig",
    "TournamentResult",
    "TransportError",
    "analyze_record",
    "analyze_records",
    "belief",
    "brute_force_oracle",
    "compute_metrics",
    "deal_roles",
    "knowledge_for",
    "load_record",
    "make_agent",
    "replay",
    "run_game",
    "run_tournament",
    "select_team",
    "write_record",
]
