"""Service application state: corpus + selector + query handling.

Everything HTTP-agnostic lives here so the endpoint logic is testable
without sockets: loading the corpus (``.npz``/``.csv``/``.json`` tables
or ``.rpak`` table packs), training or loading the
:class:`~repro.ml.FormatSelector`, parsing ``/select`` payloads,
slicing ``/sweep`` queries out of the loaded
:class:`~repro.core.table.SweepTable` and rendering JSON/CSV bodies.
"""

from __future__ import annotations

import dataclasses
import io
import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.generator import MatrixSpec
from ..core.table import SweepTable
from ..ml.selector import FormatSelector, choose_formats
from .stats import ServiceStats

__all__ = [
    "BadRequest", "ServiceApp", "load_corpus", "train_selector",
]

_TABLE_PREFIX = "table/"

# /sweep query parameters that are not column filters.
_RESERVED_PARAMS = ("fmt", "limit", "offset", "columns")

# Rendered /sweep slices kept (keyed by the canonical query); repeat
# queries — dashboards polling one slice — skip the filter+render work.
SWEEP_CACHE_SIZE = 128


class BadRequest(ValueError):
    """Client error: becomes an HTTP 400 with the message as body."""


def load_corpus(path) -> SweepTable:
    """Load the sweep corpus from a saved table or a table pack.

    ``.npz``/``.csv``/``.json`` go through :func:`repro.io.load_table`;
    ``.rpak`` must be a packed table (``repro pack table.npz``).
    """
    path = Path(path)
    if path.suffix == ".rpak":
        from ..io.pack import Pack

        with Pack.open(path) as pack:
            keys = [
                k for k in pack.keys() if k.startswith(_TABLE_PREFIX)
            ]
            if not keys:
                raise ValueError(
                    f"{path} is not a packed table (no "
                    f"{_TABLE_PREFIX}* entries); pack one with "
                    "`repro pack table.npz`"
                )
            return SweepTable.from_blobs(
                {k: pack.read(k) for k in keys}, prefix=_TABLE_PREFIX
            )
    from ..io import load_table

    return load_table(path)


def _looks_best_only(table: SweepTable) -> bool:
    """One row per (matrix, device) while several formats exist —
    the :func:`repro.experiments.runner` heuristic."""
    if not len(table) or len(table.categories("format")) <= 1:
        return False
    g, _ = table.group_index("matrix")
    d, _ = table.group_index("device")
    n_dev = int(d.max()) + 1
    per_pair = np.bincount(g * n_dev + d)
    return bool(per_pair[per_pair > 0].max() == 1)


def train_selector(
    table: SweepTable,
    device: Optional[str] = None,
    formats: Optional[Sequence[str]] = None,
    model: str = "forest",
    seed: int = 0,
) -> FormatSelector:
    """Fit a :class:`~repro.ml.FormatSelector` from a saved sweep table.

    The table must carry per-format rows (``repro sweep
    --all-formats``); a multi-device table needs ``device`` to name the
    slice to train on (the selector is per-device by construction).
    ``formats`` defaults to the formats present in the slice.
    """
    from ..experiments.spec import MODEL_FAMILIES

    if model not in MODEL_FAMILIES:
        raise ValueError(
            f"unknown model family {model!r}; available: "
            f"{sorted(MODEL_FAMILIES)}"
        )
    for column in ("matrix", "device", "format", "gflops"):
        if column not in table.names:
            raise ValueError(
                f"corpus has no {column!r} column (columns: "
                f"{table.names}); pass a measurement table written by "
                "`repro sweep --out`"
            )
    devices = table.unique("device")
    if device is not None:
        if device not in devices:
            raise ValueError(
                f"device {device!r} has no rows in the corpus; "
                f"available: {devices}"
            )
        table = table.where(device=device)
    elif len(devices) > 1:
        raise ValueError(
            f"corpus spans devices {devices}; the selector is "
            "per-device — pick one with --device"
        )
    if _looks_best_only(table):
        raise ValueError(
            "corpus looks like a best-only sweep (one row per matrix "
            "and device, several formats overall); the selector trains "
            "on per-format rows — re-run `repro sweep --all-formats "
            "--out ...`"
        )
    candidates = (
        list(formats) if formats else list(table.unique("format"))
    )
    missing = [f for f in candidates if f not in table.unique("format")]
    if missing:
        raise ValueError(
            f"formats {missing} have no rows in the corpus slice; "
            f"present: {table.unique('format')}"
        )
    family = MODEL_FAMILIES[model]
    selector = FormatSelector(
        candidates, model_factory=lambda: family(seed)
    )
    return selector.fit(table)


# -- /select payload parsing -----------------------------------------
_SPEC_FIELDS = {f.name for f in dataclasses.fields(MatrixSpec)}
# Declared-scale feature mapping (MatrixSpec field -> paper feature),
# mirroring what the sweep records for a spec before materialisation.
_SPEC_FEATURES = {
    "avg_nnz_per_row": "avg_nnz_per_row",
    "skew_coeff": "skew_coeff",
    "cross_row_sim": "cross_row_similarity",
    "avg_num_neigh": "avg_num_neighbours",
}


def _features_from_spec(spec_dict: dict,
                        feature_keys: Sequence[str]) -> dict:
    unknown = sorted(
        set(spec_dict) - _SPEC_FIELDS - {"mem_footprint_mb"}
    )
    if unknown:
        raise BadRequest(
            f"unknown spec fields {unknown}; MatrixSpec takes "
            f"{sorted(_SPEC_FIELDS)} (or mem_footprint_mb instead of "
            "n_rows)"
        )
    spec_dict = dict(spec_dict)
    try:
        if "mem_footprint_mb" in spec_dict:
            footprint = spec_dict.pop("mem_footprint_mb")
            avg = spec_dict.pop("avg_nnz_per_row", None)
            if avg is None:
                raise BadRequest(
                    "a footprint spec needs avg_nnz_per_row too"
                )
            spec = MatrixSpec.from_footprint(
                float(footprint), float(avg), **spec_dict
            )
        else:
            if "n_rows" not in spec_dict:
                raise BadRequest(
                    "spec needs n_rows (or mem_footprint_mb) and "
                    "avg_nnz_per_row"
                )
            if "avg_nnz_per_row" not in spec_dict:
                raise BadRequest("spec needs avg_nnz_per_row")
            spec_dict.setdefault("n_cols", spec_dict["n_rows"])
            spec = MatrixSpec(**spec_dict)
    except BadRequest:
        raise
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"bad spec: {exc}") from exc
    features = {"mem_footprint_mb": spec.mem_footprint_mb}
    for field, feature in _SPEC_FEATURES.items():
        features[feature] = float(getattr(spec, field))
    missing = [k for k in feature_keys if k not in features]
    if missing:
        raise BadRequest(
            f"the loaded selector needs feature keys {missing} that a "
            "spec does not determine; send an explicit "
            '{"features": {...}} payload'
        )
    return features


def _parse_select_payload(payload,
                          feature_keys: Sequence[str]) -> dict:
    """``/select`` body -> feature dict for the selector."""
    if not isinstance(payload, dict):
        raise BadRequest(
            'body must be a JSON object: {"features": {...}} or '
            '{"spec": {...}}'
        )
    if "features" in payload:
        features = payload["features"]
        if not isinstance(features, dict):
            raise BadRequest('"features" must be an object')
        missing = [k for k in feature_keys if k not in features]
        if missing:
            raise BadRequest(
                f"missing feature keys {missing}; the loaded selector "
                f"uses {list(feature_keys)}"
            )
        out = {}
        for key in feature_keys:
            try:
                out[key] = float(features[key])
            except (TypeError, ValueError) as exc:
                raise BadRequest(
                    f"feature {key!r} must be a number, got "
                    f"{features[key]!r}"
                ) from exc
        return out
    if "spec" in payload:
        spec = payload["spec"]
        if not isinstance(spec, dict):
            raise BadRequest('"spec" must be an object')
        return _features_from_spec(spec, feature_keys)
    raise BadRequest(
        'body must carry "features" (explicit feature values) or '
        '"spec" (a MatrixSpec to derive them from)'
    )


class ServiceApp:
    """Loaded state plus endpoint logic (HTTP-agnostic).

    ``/select`` answers come from :meth:`evaluate` over whatever batch
    of parsed payloads the server hands it (at most ``max_batch``); an
    answer is identical to a direct call whatever batch it shares —
    batching is purely a throughput mechanism (see docs/service.md).
    """

    def __init__(
        self,
        selector: FormatSelector,
        table: SweepTable,
        max_batch: int = 64,
        stats: Optional[ServiceStats] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.selector = selector
        self.table = table
        self.stats = stats or ServiceStats()
        self.max_batch = max_batch
        self._sweep_cache: "OrderedDict[tuple, Tuple[bytes, str]]" = (
            OrderedDict()
        )
        self._sweep_lock = threading.Lock()
        # Warm the predict path (builds the selector's stacked router)
        # so the first request is not the one paying the one-off cost.
        self.selector.predict_gflops_batch(
            [{k: 0.0 for k in self.selector.feature_keys}]
        )

    # -- /select -------------------------------------------------------
    def parse_select(self, payload) -> dict:
        """One ``/select`` body (already JSON-decoded) -> the feature
        dict :meth:`evaluate` takes; raises :class:`BadRequest`."""
        return _parse_select_payload(payload, self.selector.feature_keys)

    def evaluate(self, features_seq: Sequence[dict]) -> List[dict]:
        """One batched evaluate; entry ``i`` is exactly what direct
        ``select_batch``/``predict_gflops_batch`` calls return for
        ``features_seq[i]`` (the selector's batch paths are
        bit-identical per entry, and the format is picked by the same
        :func:`~repro.ml.selector.choose_formats` rule)."""
        scores = self.selector.predict_gflops_batch(features_seq)
        out = []
        for i, chosen in enumerate(choose_formats(scores)):
            per_format = {fmt: float(col[i]) for fmt, col in scores.items()}
            out.append({
                "format": chosen,
                "predicted_gflops": per_format[chosen],
                "gflops": per_format,
            })
        return out

    # -- /sweep --------------------------------------------------------
    def _coerce_filter(self, name: str, raw: str):
        """Parse a query-string value through the column's dtype."""
        if self.table.is_categorical(name):
            return raw
        dtype = self.table.column(name).dtype
        try:
            if dtype.kind in "iu":
                return int(raw)
            if dtype.kind == "b":
                if raw.lower() in ("1", "true"):
                    return True
                if raw.lower() in ("0", "false"):
                    return False
                raise ValueError(raw)
            return float(raw)
        except ValueError as exc:
            raise BadRequest(
                f"filter {name}={raw!r} does not parse as the "
                f"column's {dtype} dtype"
            ) from exc

    def sweep_query(self, params: Dict[str, str]) -> Tuple[bytes, str]:
        """Handle one ``/sweep`` query: ``(body, content_type)``.

        Any parameter named after a table column filters on it
        (comma-separated values select any of them via ``where_in``);
        ``columns`` projects, ``limit``/``offset`` paginate, ``fmt``
        picks ``json`` (default) or ``csv``.
        """
        key = tuple(sorted(params.items()))
        with self._sweep_lock:
            cached = self._sweep_cache.get(key)
            if cached is not None:
                self._sweep_cache.move_to_end(key)
        self.stats.record_cache(hit=cached is not None)
        if cached is not None:
            return cached
        body, ctype = self._render_sweep(params)
        with self._sweep_lock:
            self._sweep_cache[key] = (body, ctype)
            while len(self._sweep_cache) > SWEEP_CACHE_SIZE:
                self._sweep_cache.popitem(last=False)
        return body, ctype

    def _render_sweep(self, params: Dict[str, str]) -> Tuple[bytes, str]:
        fmt = params.get("fmt", "json")
        if fmt not in ("json", "csv"):
            raise BadRequest(
                f"unknown fmt {fmt!r}; use json or csv"
            )
        try:
            limit = (
                int(params["limit"]) if "limit" in params else None
            )
            offset = int(params.get("offset", "0"))
        except ValueError as exc:
            raise BadRequest(
                f"limit/offset must be integers: {exc}"
            ) from exc
        if (limit is not None and limit < 0) or offset < 0:
            raise BadRequest("limit/offset must be >= 0")
        names = self.table.names
        columns = names
        if "columns" in params:
            columns = [
                c for c in params["columns"].split(",") if c
            ]
            unknown = [c for c in columns if c not in names]
            if unknown:
                raise BadRequest(
                    f"unknown columns {unknown}; available: {names}"
                )
        sliced = self.table
        for name, raw in params.items():
            if name in _RESERVED_PARAMS:
                continue
            if name not in names:
                raise BadRequest(
                    f"unknown filter column {name!r}; available "
                    f"columns: {names} (plus "
                    f"{', '.join(_RESERVED_PARAMS)})"
                )
            if "," in raw:
                values = [
                    self._coerce_filter(name, v)
                    for v in raw.split(",") if v
                ]
                sliced = sliced.where_in(name, values)
            else:
                sliced = sliced.where(
                    **{name: self._coerce_filter(name, raw)}
                )
        total = len(sliced)
        stop = total if limit is None else min(offset + limit, total)
        if offset or stop != total:
            sliced = sliced.select(np.arange(offset, max(offset, stop)))
        rows = [
            {c: row[c] for c in columns} for row in sliced.iter_rows()
        ]
        if fmt == "csv":
            out = io.StringIO()
            out.write(",".join(columns) + "\n")
            for row in rows:
                out.write(
                    ",".join(str(row[c]) for c in columns) + "\n"
                )
            return out.getvalue().encode(), "text/csv; charset=utf-8"
        body = json.dumps({
            "total": total,
            "returned": len(rows),
            "rows": rows,
        }, sort_keys=True)
        return body.encode(), "application/json"

    # -- /healthz and /stats -------------------------------------------
    def healthz(self) -> dict:
        return {
            "status": "ok",
            "rows": len(self.table),
            "matrices": len(self.table.unique("matrix"))
            if "matrix" in self.table.names else 0,
            "formats": list(self.selector.formats),
            "feature_keys": list(self.selector.feature_keys),
            "max_batch": self.max_batch,
        }

    def stats_snapshot(self) -> dict:
        return self.stats.snapshot()
