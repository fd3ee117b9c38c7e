"""Baseline graph frameworks re-implemented on the simulated machine.

Each baseline reproduces the *execution model* the paper compares against
(Section VI-B): CuSha's G-Shards edge-centric processing, Gunrock's
advance+filter frontier, Tigr's preprocessed virtual-split vertex-centric
kernel, GTS's fixed-chunk topology streaming, the naive vertex-centric
mapping of Harish & Narayanan as a motivation baseline, and a Ligra-like
shared-memory CPU engine.  All share the exact label-propagation
semantics and one frontier loop (:meth:`Framework.run`), so their results
are bit-identical to EtaGraph's; only the cost model — data structures,
transfers, kernel shapes — differs, which is precisely what Table III
measures.
"""

from repro.baselines.base import Framework, FrameworkResult, get_framework
from repro.baselines.cpu_ligra import LigraLikeCPU
from repro.baselines.cusha import CuShaFramework
from repro.baselines.gts import GTSFramework
from repro.baselines.gunrock import GunrockFramework
from repro.baselines.tigr import TigrFramework
from repro.baselines.simple_vc import SimpleVertexCentric

__all__ = [
    "Framework",
    "FrameworkResult",
    "get_framework",
    "CuShaFramework",
    "GTSFramework",
    "GunrockFramework",
    "LigraLikeCPU",
    "TigrFramework",
    "SimpleVertexCentric",
]
