"""Shared scene-evaluation core.

Every figure in the paper is regenerated by sweeping steering angles
and headset poses, yet propagation geometry depends only on node
positions and occluders — not on steering.  This package factors the
scene-dependent work out of the per-angle hot path:

* :mod:`repro.sim.cache` — :class:`SceneCache`, a memoizing front-end
  for :class:`repro.geometry.raytrace.RayTracer` keyed by (tx, rx,
  occluder signature, bounce budget) with explicit invalidation.  Its
  hit/miss counters record into :mod:`repro.telemetry` and surface in
  every experiment report, so speedups stay observable.

The vectorized gain kernels themselves live next to the physics in
:mod:`repro.phy.antenna` (``gain_dbi_batch``) and are consumed by the
batched :meth:`repro.link.budget.LinkBudget.sweep` API built on both.
"""

from repro.sim.cache import SceneCache

__all__ = ["SceneCache"]
