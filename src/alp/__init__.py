"""Auto-encoding logic programs: learn encoder/decoder clause pairs that
compress a relational knowledge base into a latent vocabulary and back.
"""

from .kb import (
    Fact,
    KnowledgeBase,
    ModeDeclaration,
    Predicate,
    avg_facts_per_predicate,
    parse_kb,
    parse_kb_document,
    serialize_kb,
)
from .logic import (
    Alp,
    Clause,
    Literal,
    LogicProgram,
    apply_program,
    ground_consequences,
    parse_program,
    reconstruction_loss,
    serialize_program,
)
from .candidates import GenerationConfig
from .solver import SearchConfig
from .pipeline import learn

__all__ = [
    "Alp",
    "Clause",
    "Fact",
    "GenerationConfig",
    "KnowledgeBase",
    "Literal",
    "LogicProgram",
    "ModeDeclaration",
    "Predicate",
    "SearchConfig",
    "learn",
    "apply_program",
    "avg_facts_per_predicate",
    "ground_consequences",
    "parse_kb",
    "parse_kb_document",
    "parse_program",
    "reconstruction_loss",
    "serialize_kb",
    "serialize_program",
]
