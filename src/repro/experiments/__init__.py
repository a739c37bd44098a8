"""Per-figure/table experiment harnesses.

Each reproduce target is one entry of
:data:`repro.experiments.report.EXPERIMENTS`; the figure modules are
imported only when their entry runs, so importing this package stays
cheap.
"""

from repro.experiments.common import PAPER_SETUPS, format_table, setup_cluster
from repro.experiments.knobs import TUNED_KNOBS, tuned_knobs

__all__ = [
    "tuned_knobs",
    "TUNED_KNOBS",
    "PAPER_SETUPS",
    "format_table",
    "setup_cluster",
]
