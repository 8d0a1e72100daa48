"""repro — a reproduction of the NPSS prototype simulation executive.

Homer & Schlichting, "Supporting Heterogeneity and Distribution in the
Numerical Propulsion System Simulation Project" (U. Arizona TR 92-38a /
HPDC 1993), rebuilt in Python:

* :mod:`repro.uts` — the Universal Type System (spec language, one
  compiled codec for the wire format, bit-accurate native formats incl.
  Cray and Convex),
* :mod:`repro.machines` — the 1993 machine park as virtual hosts,
* :mod:`repro.network` — the three-tier simulated internet,
* :mod:`repro.schooner` — the heterogeneous RPC facility (stub
  compiler, Manager/Servers, lines, migration, shared procedures),
* :mod:`repro.avs` — the AVS dataflow substrate (modules, widgets,
  Network Editor, scheduler),
* :mod:`repro.solvers` — the TESS solution-method menus,
* :mod:`repro.tess` — the turbofan engine system simulator (F100 and a
  turbojet, flight profiles, failure scenarios),
* :mod:`repro.parallel` — a PVM-like cluster substrate (Figure 1),
* :mod:`repro.core` — the paper's contribution: the NPSS executive
  gluing AVS and Schooner around TESS, plus zooming and monitoring.

Start with :class:`repro.core.NPSSExecutive` or
``examples/quickstart.py``.
"""

__version__ = "1.0.0"
