"""One module per paper artifact (see DESIGN.md section 4), plus the
host wall-clock harnesses.

Every entry of :data:`REPORTS` is a ``run(quick: bool = False,
ctx: BenchContext | None = None) -> ExperimentReport``; the CLI and the
runner look names up there.  ``all`` runs :data:`ALL_EXPERIMENTS` only.
"""

from repro.bench.experiments import (  # noqa: F401
    exp_table1,
    exp_table2,
    exp_table3,
    exp_table4,
    exp_table5,
    exp_fig2,
    exp_fig3,
    exp_fig4,
    exp_fig5,
    exp_fig6,
    exp_fig7,
    exp_multi,
    exp_perf,
    exp_msbfs,
    exp_compress,
)
from repro.serving import loadgen

ALL_EXPERIMENTS = {
    "table1": exp_table1.run,
    "table2": exp_table2.run,
    "table3": exp_table3.run,
    "table4": exp_table4.run,
    "table5": exp_table5.run,
    "fig2": exp_fig2.run,
    "fig3": exp_fig3.run,
    "fig4": exp_fig4.run,
    "fig5": exp_fig5.run,
    "fig6": exp_fig6.run,
    "fig7": exp_fig7.run,
    "multi": exp_multi.run,
}

#: Reports that time the simulator on the host (``wall_*`` leaves), run
#: by name only: ``perf`` (warm-session throughput), ``msbfs`` (wave vs
#: sequential batch), ``compress`` (density and out-of-core placements)
#: and ``serve`` (closed-loop multi-tenant load).
HARNESSES = {
    "perf": exp_perf.run_perf,
    "msbfs": exp_msbfs.run_msbfs,
    "compress": exp_compress.run_compress,
    "serve": loadgen.run_serve,
}

#: Every report the bench driver runs by name.
REPORTS = {**ALL_EXPERIMENTS, **HARNESSES}
