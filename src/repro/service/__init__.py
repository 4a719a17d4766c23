"""Long-running sweep/selector HTTP service (``repro serve``).

The service is a thin, stdlib-only layer over the batched library
paths: it loads a trained :class:`~repro.ml.FormatSelector` and a
:class:`~repro.core.table.SweepTable` corpus once at startup, then
serves format-selection queries (``POST /select``) and sweep-table
slices (``GET /sweep``) from one event-loop thread.  Every ``/select``
that arrives in one poll of the loop shares one batched predict call,
and slices come straight from the loaded columns.  No modelling code
lives here — every answer is produced by the same
``select_batch``/``predict_gflops_batch``/``where`` calls a library
caller would make, and single-request responses are bit-identical to
the direct calls (see docs/service.md for the contract).
"""

from .app import BadRequest, ServiceApp, load_corpus, train_selector
from .http import ReproService
from .stats import ServiceStats

__all__ = [
    "BadRequest",
    "ReproService",
    "ServiceApp",
    "ServiceStats",
    "load_corpus",
    "train_selector",
]
