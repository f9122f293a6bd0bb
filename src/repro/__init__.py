"""repro — a chip-design enablement toolkit in pure Python.

Reproduction artifact for *Improving Chip Design Enablement for
Universities in Europe — A Position Paper* (DATE 2025).  The package
implements an educational end-to-end digital ASIC flow (HDL → simulation →
synthesis → place & route → timing/power signoff → GDSII), the enablement
platform the paper advocates (tiered access, flow templates, cloud jobs,
MPW shuttles), and the economic/workforce models behind its argument.

Start at :mod:`repro.hdl` to describe hardware, :mod:`repro.core.flow` to
run the full flow, :mod:`repro.obs` to trace and profile it, and
:mod:`repro.analytics` for the paper's quantitative claims.
"""

__version__ = "1.1.0"
