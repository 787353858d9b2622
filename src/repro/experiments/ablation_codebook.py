"""Ablation: codebook granularity vs search cost vs SNR loss.

Every beam in the codebook is another probe in every search — and the
backscatter alignment of section 4.1 sweeps the *joint* space, so codebook
size enters squared.  This ablation sweeps array size (which sets
beamwidth and hence the beams needed to cover the scan range) and the
designed crossover depth, reporting:

* beams required to cover a +/-50 degree sector,
* worst-case scalloping loss against the array's true pattern,
* the probe bill for an SLS exchange and for the joint sweep.

The design rule it validates: bigger arrays buy link budget but pay
for it twice at search time.
"""

from __future__ import annotations


from repro.experiments.harness import ExperimentReport, scoped_run
from repro.link.codebook_design import (
    analyze_coverage,
    design_sector_codebook,
    search_cost_frames,
)
from repro.phy.antenna import PhasedArray, PhasedArrayConfig

#: Array sizes swept (the prototype uses 16 elements).
ELEMENT_COUNTS = (8, 16, 32)


@scoped_run("ablation-codebook")
def run_ablation_codebook(
    max_scalloping_db: float = 3.0,
) -> ExperimentReport:
    """Codebook size and search cost across array apertures."""
    if max_scalloping_db <= 0.0:
        raise ValueError("max_scalloping_db must be positive")
    report = ExperimentReport(
        experiment_id="ablation-codebook",
        title="Codebook granularity: beams, coverage, search cost",
    )
    results = {}
    for n in ELEMENT_COUNTS:
        config = PhasedArrayConfig(num_elements=n, max_scan_deg=50.0)
        array = PhasedArray(config, boresight_deg=0.0)
        codebook = design_sector_codebook(
            config, -50.0, 50.0, max_scalloping_db=max_scalloping_db
        )
        coverage = analyze_coverage(codebook, array, -48.0, 48.0)
        results[n] = (codebook, coverage)
        report.add_row(
            elements=n,
            peak_gain_dbi=config.boresight_gain_dbi,
            beamwidth_deg=config.beamwidth_deg,
            beams=len(codebook),
            worst_gain_dbi=coverage.worst_gain_dbi,
            scalloping_db=coverage.scalloping_loss_db,
            sls_probes=search_cost_frames((len(codebook), len(codebook)), False),
            joint_probes=search_cost_frames((len(codebook), len(codebook)), True),
        )

    beams = {n: len(results[n][0]) for n in ELEMENT_COUNTS}
    report.check(
        "doubling the array roughly doubles the codebook",
        beams[16] >= 1.6 * beams[8] and beams[32] >= 1.6 * beams[16],
        f"beams: {beams}",
    )
    report.check(
        "the joint search bill grows quadratically with aperture",
        beams[32] ** 2 >= 10 * beams[8] ** 2,
        f"{beams[32] ** 2} vs {beams[8] ** 2} joint probes",
    )
    report.check(
        "every designed codebook keeps worst-case loss within ~2x the "
        "target",
        all(
            results[n][1].scalloping_loss_db <= 2.0 * max_scalloping_db + 1.0
            for n in ELEMENT_COUNTS
        ),
        ", ".join(
            f"N={n}: {results[n][1].scalloping_loss_db:.1f} dB"
            for n in ELEMENT_COUNTS
        ),
    )
    report.check(
        "bigger arrays still win on worst-covered-angle gain",
        results[32][1].worst_gain_dbi
        > results[16][1].worst_gain_dbi
        > results[8][1].worst_gain_dbi,
        "aperture gain outruns scalloping",
    )
    return report
