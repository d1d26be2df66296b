"""Time-minimal rectilinear paths among transient axis-parallel segment obstacles."""

from .engine import PlanResult, WaveletStats, naive_plan
from .fast import fast_plan
from .geometry import (
    Scene,
    TransientEdge,
    TimedPath,
    Waypoint,
    l1_distance,
    validate_path,
    validate_scene,
)
from .oracle import ParamsInfeasible, bench_scene, oracle_arrivals, oracle_plan, random_scene, walled_scene
from .pathrec import WitnessError
from .scenario import (
    ScenarioError,
    canonical_scene,
    dump_scene,
    dumps_scene,
    load_scene,
    loads_scene,
)
from .spm import (
    OutsideBoundingBox,
    ShortestPathMap,
    build_spm,
    dump_spm,
    load_spm,
)
from .svg import render_svg

__all__ = [
    "Scene",
    "TransientEdge",
    "TimedPath",
    "Waypoint",
    "l1_distance",
    "validate_path",
    "validate_scene",
    "PlanResult",
    "WaveletStats",
    "naive_plan",
    "WitnessError",
    "fast_plan",
    "ParamsInfeasible",
    "oracle_plan",
    "oracle_arrivals",
    "random_scene",
    "bench_scene",
    "walled_scene",
    "ScenarioError",
    "canonical_scene",
    "load_scene",
    "loads_scene",
    "dump_scene",
    "dumps_scene",
    "OutsideBoundingBox",
    "ShortestPathMap",
    "build_spm",
    "dump_spm",
    "load_spm",
    "render_svg",
]

__version__ = "0.1.0"
