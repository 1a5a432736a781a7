"""The paper's primary contribution: Algorithm 5.1 and the membership API."""

from .closure import ClosureResult, closure_of_masks, compute_closure
from .engine import KernelStats, closure_of_masks_fast
from .engines import (
    Engine,
    available_engines,
    get_default_engine,
    get_engine,
    register_engine,
    set_default_engine,
)
from .membership import (
    analyse,
    closure,
    dependency_basis,
    equivalent,
    implies,
    implies_every,
    is_redundant,
    minimal_cover,
)
from .plan import ClosureIntervalCache, CompiledPlan, PlanCacheInfo, compile_plan
from .reference import reference_closure, reference_dependency_basis
from .session import Session, SessionCacheInfo
from .trace import TraceRecorder, TraceStep

__all__ = [
    "ClosureResult", "compute_closure", "closure_of_masks",
    "KernelStats", "closure_of_masks_fast",
    "Engine", "available_engines", "get_default_engine", "get_engine",
    "register_engine", "set_default_engine",
    "CompiledPlan", "compile_plan", "ClosureIntervalCache", "PlanCacheInfo",
    "Session", "SessionCacheInfo",
    "closure", "dependency_basis", "analyse", "implies", "implies_every",
    "equivalent", "is_redundant", "minimal_cover",
    "reference_closure", "reference_dependency_basis",
    "TraceRecorder", "TraceStep",
]
