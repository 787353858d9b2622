"""Link layer: radios, link budgets, beam search, event simulation."""

from repro.link.beams import (
    DEFAULT_PROBE_TIME_S,
    Codebook,
    SweepResult,
    exhaustive_joint_sweep,
    single_sided_sweep,
)
from repro.link.arq import (
    ArqFrameLink,
    DeliveryOutcome,
    delivery_statistics,
)
from repro.link.budget import LinkBudget, LinkMeasurement
from repro.link.interference import (
    InterferenceAnalyzer,
    SinrMeasurement,
    sinr_db,
)
from repro.link.codebook_design import (
    CodebookCoverage,
    analyze_coverage,
    design_sector_codebook,
    search_cost_frames,
)
from repro.link.events import EventHandle, Simulator
from repro.link.radios import (
    DEFAULT_RADIO_CONFIG,
    HEADSET_RADIO_CONFIG,
    Radio,
    RadioConfig,
)
from repro.link.sls import (
    SSW_FRAME_TIME_S,
    SlsResult,
    sector_level_sweep,
    sls_probe_count,
)

__all__ = [
    "DEFAULT_PROBE_TIME_S",
    "Codebook",
    "SweepResult",
    "exhaustive_joint_sweep",
    "single_sided_sweep",
    "ArqFrameLink",
    "DeliveryOutcome",
    "delivery_statistics",
    "LinkBudget",
    "LinkMeasurement",
    "InterferenceAnalyzer",
    "SinrMeasurement",
    "sinr_db",
    "CodebookCoverage",
    "analyze_coverage",
    "design_sector_codebook",
    "search_cost_frames",
    "EventHandle",
    "Simulator",
    "DEFAULT_RADIO_CONFIG",
    "HEADSET_RADIO_CONFIG",
    "SSW_FRAME_TIME_S",
    "SlsResult",
    "sector_level_sweep",
    "sls_probe_count",
    "Radio",
    "RadioConfig",
]
