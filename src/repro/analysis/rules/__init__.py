"""Built-in rules; importing this package registers all of them.

Each module holds one rule family (see ``docs/static_analysis.md`` for
the catalogue):

- :mod:`.layering`     — the package dependency DAG;
- :mod:`.determinism`  — iteration-order hazards in reproducibility-
  critical packages;
- :mod:`.exceptions`   — broad-``except`` discipline and interrupt
  re-raising;
- :mod:`.metrics`      — the obs metric-name registry, both directions;
- :mod:`.configsync`   — ``DistinctConfig`` fields vs docs and CLI flags;
- :mod:`.picklability` — task functions handed to the process pool;
- :mod:`.lifecycle`    — file renames only inside the fsyncing
  checkpoint writer;
- :mod:`.privateapi`   — private scipy modules only inside the sparse-
  product module;
- :mod:`.taint`        — RNG construction without a pinned seed.
"""

from repro.analysis.rules import (  # noqa: F401  (import-for-side-effect)
    configsync,
    determinism,
    exceptions,
    layering,
    lifecycle,
    metrics,
    picklability,
    privateapi,
    taint,
)
