"""Feature-based format selection.

The paper's related-work line (SMAT [4], BestSF [14], ...) trains
predictors that pick the best storage format from matrix features.
:class:`FormatSelector` packages that workflow on top of the repro stack:
one regressor per candidate format, trained on (five-feature vector ->
GFLOPS) pairs from a sweep; selection is the argmax of predicted GFLOPS.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.table import SweepTable, _write_npz
from .forest import ForestStack, RandomForestRegressor
from .knn import KNeighborsRegressor
from .linear import LinearRegression, RidgeRegression

__all__ = [
    "FormatSelector", "SelectionReport", "SelectorVersionError",
    "SELECTOR_SCHEMA_VERSION", "choose_formats",
]

SELECTOR_SCHEMA_VERSION = 1

# Persistable model families (npz ``__kind__`` tag -> class).  A model
# participates by exposing ``to_state() -> dict[str, ndarray]`` and
# ``from_state(state)`` with bit-identical reloaded predictions.
MODEL_IO: Dict[str, type] = {
    "forest": RandomForestRegressor,
    "knn": KNeighborsRegressor,
    "linear": LinearRegression,
    "ridge": RidgeRegression,
}
_KIND_OF = {cls: kind for kind, cls in MODEL_IO.items()}


class SelectorVersionError(ValueError):
    """A selector artifact from an incompatible schema version (the
    :class:`~repro.core.table.SchemaVersionError` convention)."""

MINIMAL_FEATURES = [
    "mem_footprint_mb",
    "avg_nnz_per_row",
    "skew_coeff",
    "cross_row_similarity",
    "avg_num_neighbours",
]


def _instance_key(row: dict):
    """Explicit grouping key tying a measurement row to its matrix.

    Per-format rows of one matrix must collapse to one training example,
    so the key has to be stable across rows: the matrix name when
    present, else the sweep's ``spec_index`` or the grid's ``instance``
    index.  Rows with none of these are ambiguous — grouping them by
    object identity would silently treat every row as a distinct matrix
    (each format row becomes its own "matrix" with exactly one
    observation), so we refuse instead.
    """
    name = row.get("matrix")
    if name:
        return ("matrix", name)
    for alt in ("spec_index", "instance"):
        value = row.get(alt)
        if value is not None:
            return (alt, value)
    raise ValueError(
        "measurement row carries no 'matrix' name, 'spec_index' or "
        "'instance' key to group per-format rows by; add one of them "
        "(anonymous rows cannot be grouped unambiguously)"
    )


def _mixed_coordinate_error(coord: str, seen) -> ValueError:
    return ValueError(
        f"measurement rows span multiple {coord}s "
        f"({sorted(seen)}); fit one selector per {coord} "
        "(filter the rows or simulate one grid slice at a time)"
    )


def _as_rows(rows):
    """Accept dict rows or a ``GridResult`` (duck-typed on
    ``to_rows(with_features=...)``), and refuse row sets that mix
    devices or precisions.

    ``SweepTable`` never reaches this path — fit/evaluate consume its
    columns directly; this shim materialises the *other* row sources
    exactly once.  The selector's feature vector carries no
    device/precision coordinate, so rows from several devices (or
    fp64+fp32) would assign conflicting targets to one feature vector —
    and per-format dicts would silently keep whichever device's row came
    last.  Train one selector per (device, precision) slice instead.
    """
    if hasattr(rows, "to_rows"):
        rows = rows.to_rows(with_features=True)
    else:
        rows = list(rows)  # materialise: inspected twice below
    for coord in ("device", "precision"):
        seen = {r[coord] for r in rows if coord in r}
        if len(seen) > 1:
            raise _mixed_coordinate_error(coord, seen)
    return rows


def _check_table_coordinates(table: SweepTable) -> None:
    """The multi-device/precision guard, as a vectorised uniqueness
    check on the categorical codes (no row materialisation)."""
    for coord in ("device", "precision"):
        if coord in table.names:
            seen = table.unique(coord)
            if len(seen) > 1:
                raise _mixed_coordinate_error(coord, seen)


def _table_key_column(table: SweepTable) -> str:
    """The grouping column of a table (mirrors :func:`_instance_key`)."""
    for name in ("matrix", "spec_index", "instance"):
        if name in table.names:
            return name
    raise ValueError(
        "measurement row carries no 'matrix' name, 'spec_index' or "
        "'instance' key to group per-format rows by; add one of them "
        "(anonymous rows cannot be grouped unambiguously)"
    )


def choose_formats(scores: Dict[str, np.ndarray]) -> List[str]:
    """The chosen format per sample of ``{format: predicted GFLOPS}``.

    ``np.argmax`` over the stacked (format, sample) score matrix: ties
    go to the earliest format and a NaN score beats every number.
    Every path that picks a format (``select``, ``select_batch``,
    ``evaluate`` and the service's ``/select``) chooses through this
    rule, so they agree on every input, NaN included.
    """
    names = list(scores)
    stacked = np.stack([np.atleast_1d(scores[f]) for f in names])
    return [names[i] for i in np.argmax(stacked, axis=0)]


class SelectionReport(dict):
    """Evaluation summary: accuracy + performance retained vs oracle."""

    @property
    def accuracy(self) -> float:
        return self["top1_accuracy"]

    @property
    def retained(self) -> float:
        return self["mean_retained"]


class FormatSelector:
    """Predict the best storage format for a matrix from its features.

    Parameters
    ----------
    formats:
        Candidate format names (e.g. a device's Table-II list).
    feature_keys:
        Feature-dict keys used as the input vector (default: the paper's
        minimal five).
    model_factory:
        Zero-argument callable returning a fresh regressor with
        ``fit``/``predict`` (default: a 25-tree random forest).
    """

    def __init__(
        self,
        formats: Sequence[str],
        feature_keys: Optional[Sequence[str]] = None,
        model_factory=None,
    ):
        if not formats:
            raise ValueError("need at least one candidate format")
        self.formats = list(formats)
        self.feature_keys = list(feature_keys or MINIMAL_FEATURES)
        self._factory = model_factory or (
            lambda: RandomForestRegressor(n_estimators=25, random_state=0)
        )
        self._models: Dict[str, object] = {}
        self._stack: Optional[ForestStack] = None

    # ------------------------------------------------------------------
    def _vector(self, features: dict) -> np.ndarray:
        return np.array(
            [np.log1p(abs(float(features[k]))) for k in self.feature_keys]
        )

    def _matrix(self, features_seq: Sequence[dict]) -> np.ndarray:
        """Feature matrix for many instances in one vectorised pass.

        ``np.log1p`` is applied elementwise either way, so each row is
        bit-identical to the corresponding :meth:`_vector` call — the
        batch paths below rely on that.
        """
        raw = np.array(
            [[abs(float(f[k])) for k in self.feature_keys]
             for f in features_seq],
            dtype=np.float64,
        ).reshape(len(features_seq), len(self.feature_keys))
        return np.log1p(raw)

    def _table_groups(
        self, table: SweepTable
    ) -> Tuple[np.ndarray, List, np.ndarray]:
        """``(group_id per row, group keys, feature matrix X)`` for a
        columnar table.

        Groups are per-matrix in first-appearance order and ``X`` row
        ``i`` is bit-identical to ``_vector`` of group ``i``'s features
        (``np.log1p``/``np.abs`` are applied elementwise either way);
        the dict path's last-row-per-group feature choice is preserved
        via an unbuffered per-group max of row positions.
        """
        _check_table_coordinates(table)
        g, keys = table.group_index(_table_key_column(table))
        last = np.full(len(keys), -1, dtype=np.int64)
        np.maximum.at(last, g, np.arange(len(table)))
        raw = np.stack(
            [
                np.abs(table.column(k)[last].astype(np.float64))
                for k in self.feature_keys
            ],
            axis=1,
        )
        return g, keys, np.log1p(raw)

    def fit(self, rows) -> "FormatSelector":
        """Train from a :class:`~repro.core.table.SweepTable` (the
        columnar fast path), from sweep dict rows with the feature keys
        plus ``format`` and ``gflops``, or directly from a
        :class:`~repro.perfmodel.batch.GridResult`.

        Rows are grouped per matrix by an explicit instance key (name,
        ``spec_index`` or grid ``instance`` index); anonymous rows raise.
        A format that refused a matrix simply has no row for it; the model
        treats missing observations as zero performance for that matrix.
        All input forms train bit-identical models.
        """
        if isinstance(rows, SweepTable):
            return self._fit_table(rows)
        by_matrix: Dict[tuple, dict] = {}
        perf: Dict[tuple, Dict[str, float]] = {}
        for r in _as_rows(rows):
            key = _instance_key(r)
            by_matrix[key] = r
            perf.setdefault(key, {})[r["format"]] = r["gflops"]
        if not by_matrix:
            raise ValueError("no training rows")
        keys = list(by_matrix)
        X = self._matrix([by_matrix[k] for k in keys])
        self._stack = None
        for fmt in self.formats:
            y = np.array([perf[k].get(fmt, 0.0) for k in keys])
            self._models[fmt] = self._factory().fit(X, y)
        return self

    def _fit_table(self, table: SweepTable) -> "FormatSelector":
        if len(table) == 0:
            raise ValueError("no training rows")
        g, _, X = self._table_groups(table)
        fmt_codes = table.codes("format")
        fmt_cats = table.categories("format")
        gflops = table.column("gflops")
        self._stack = None
        for fmt in self.formats:
            y = np.zeros(len(X))
            if fmt in fmt_cats:
                sel = fmt_codes == fmt_cats.index(fmt)
                # Duplicate (matrix, format) rows keep the last value,
                # exactly as the dict path's per-format dict does.
                y[g[sel]] = gflops[sel]
            self._models[fmt] = self._factory().fit(X, y)
        return self

    def predict_gflops(self, features: dict) -> Dict[str, float]:
        """Predicted GFLOPS for every candidate format."""
        if not self._models:
            raise RuntimeError("selector not fitted")
        x = self._vector(features)[None, :]
        return {
            fmt: float(model.predict(x)[0])
            for fmt, model in self._models.items()
        }

    def select(self, features: dict) -> str:
        """The format with the highest predicted GFLOPS
        (:func:`choose_formats`)."""
        return choose_formats(self.predict_gflops(features))[0]

    # ------------------------------------------------------------------
    def _scores(self, X: np.ndarray) -> np.ndarray:
        """Predicted GFLOPS as a (format, sample) matrix.

        Forests of one tree count route together through one
        :class:`~repro.ml.forest.ForestStack`, built on first use after
        each fit; any other models predict one format at a time.
        """
        if self._stack is None:
            models = list(self._models.values())
            if all(
                isinstance(m, RandomForestRegressor) for m in models
            ) and len({len(m.trees_) for m in models}) == 1:
                self._stack = ForestStack([m.trees_ for m in models])
        if self._stack is not None:
            return self._stack.predict(X)
        return np.stack([
            np.asarray(model.predict(X), dtype=np.float64)
            for model in self._models.values()
        ])

    def predict_gflops_batch(
        self, features_seq: Sequence[dict]
    ) -> Dict[str, np.ndarray]:
        """Predicted GFLOPS for every format over many instances.

        Entry ``[fmt][i]`` equals ``predict_gflops(features_seq[i])[fmt]``
        bit for bit: tree routing is per sample, and the trees of a
        forest are summed in the same order at every batch size.
        """
        if not self._models:
            raise RuntimeError("selector not fitted")
        X = self._matrix(list(features_seq))
        return dict(zip(self._models, self._scores(X)))

    def select_batch(self, features_seq: Sequence[dict]) -> List[str]:
        """Best predicted format per instance (batch :meth:`select`,
        same :func:`choose_formats` rule)."""
        features_seq = list(features_seq)
        if not features_seq:
            if not self._models:
                raise RuntimeError("selector not fitted")
            return []
        return choose_formats(self.predict_gflops_batch(features_seq))

    # ------------------------------------------------------------------
    def evaluate(self, rows, detail: bool = False) -> SelectionReport:
        """Top-1 accuracy and oracle-relative performance on held-out
        rows (a :class:`~repro.core.table.SweepTable`, dict rows with
        the :meth:`fit` schema, or a ``GridResult``).

        All held-out instances are scored with one batched predict per
        format; every input form produces a bit-identical report, equal
        to one :meth:`select` per instance.  ``detail`` adds a
        ``choices`` list with the per-instance (oracle, chosen,
        retained) triples that the experiment reports aggregate into
        win/confusion tables.
        """
        if isinstance(rows, SweepTable):
            return self._evaluate_table(rows, detail=detail)
        perf: Dict[tuple, Dict[str, float]] = {}
        feats: Dict[tuple, dict] = {}
        for r in _as_rows(rows):
            key = _instance_key(r)
            perf.setdefault(key, {})[r["format"]] = r["gflops"]
            feats[key] = r
        if not perf:
            raise ValueError("no evaluation rows")
        keys = list(perf)
        chosen_per_key = self.select_batch([feats[k] for k in keys])
        hits, retained, choices = 0, [], []
        for key, chosen in zip(keys, chosen_per_key):
            truth = perf[key]
            oracle = max(truth, key=truth.get)
            hits += chosen == oracle
            kept = truth.get(chosen, 0.0) / truth[oracle]
            retained.append(kept)
            if detail:
                choices.append({
                    "instance": key[1],
                    "oracle": oracle,
                    "chosen": chosen,
                    "retained": kept,
                })
        report = SelectionReport(
            top1_accuracy=hits / len(perf),
            mean_retained=float(np.mean(retained)),
            worst_retained=float(np.min(retained)),
            n_matrices=len(perf),
        )
        if detail:
            report["choices"] = choices
        return report

    def _evaluate_table(
        self, table: SweepTable, detail: bool
    ) -> SelectionReport:
        """Columnar :meth:`evaluate`: the per-group perf dicts become a
        dense (group, format) matrix, built with two fancy-index
        assignments instead of a dict per matrix."""
        if len(table) == 0:
            raise ValueError("no evaluation rows")
        if not self._models:
            raise RuntimeError("selector not fitted")
        g, keys, X = self._table_groups(table)
        n_groups = len(keys)
        chosen_names = choose_formats(
            dict(zip(self._models, self._scores(X)))
        )

        fmt_codes = table.codes("format")
        fmt_cats = table.categories("format")
        gflops = table.column("gflops")
        perf = np.full((n_groups, len(fmt_cats)), -np.inf)
        seen = np.zeros((n_groups, len(fmt_cats)), dtype=bool)
        perf[g, fmt_codes] = gflops  # duplicates: last value, as dicts
        seen[g, fmt_codes] = True
        oracle_idx = np.argmax(perf, axis=1)
        code_of = {fmt: c for c, fmt in enumerate(fmt_cats)}

        hits, retained, choices = 0, np.empty(n_groups), []
        for i in range(n_groups):
            oracle = fmt_cats[int(oracle_idx[i])]
            chosen = chosen_names[i]
            cc = code_of.get(chosen, -1)
            num = perf[i, cc] if cc >= 0 and seen[i, cc] else 0.0
            kept = num / perf[i, oracle_idx[i]]
            hits += chosen == oracle
            retained[i] = kept
            if detail:
                choices.append({
                    "instance": keys[i],
                    "oracle": oracle,
                    "chosen": chosen,
                    "retained": float(kept),
                })
        report = SelectionReport(
            top1_accuracy=hits / n_groups,
            mean_retained=float(np.mean(retained)),
            worst_retained=float(np.min(retained)),
            n_matrices=n_groups,
        )
        if detail:
            report["choices"] = choices
        return report

    # ------------------------------------------------------------------
    def to_npz(self, path: Union[str, Path]) -> None:
        """Persist the fitted selector as a lossless NPZ artifact.

        The artifact records the schema version, the candidate formats,
        the feature keys and every per-format model's fitted state
        (:data:`MODEL_IO` families only); :meth:`from_npz` rebuilds a
        selector whose predictions are bit-identical — the contract
        that lets ``repro serve`` and ``repro experiment`` share one
        trained model file.  The write is deterministic (pinned zip
        timestamps, stable member order), like ``SweepTable.to_npz``.
        """
        if not self._models:
            raise RuntimeError(
                "selector not fitted; fit before saving"
            )
        payload: Dict[str, np.ndarray] = {
            "__selector_schema__": np.int64(SELECTOR_SCHEMA_VERSION),
            "formats": np.array(self.formats, dtype=np.str_),
            "feature_keys": np.array(self.feature_keys, dtype=np.str_),
        }
        for i, fmt in enumerate(self.formats):
            model = self._models[fmt]
            kind = _KIND_OF.get(type(model))
            if kind is None:
                raise ValueError(
                    f"cannot persist model {type(model).__name__!r} for "
                    f"format {fmt!r}; persistable families: "
                    f"{sorted(MODEL_IO)}"
                )
            payload[f"model/{i}/__kind__"] = np.array(kind)
            for key, arr in model.to_state().items():
                payload[f"model/{i}/{key}"] = np.asanyarray(arr)
        with open(path, "wb") as fh:
            _write_npz(fh, payload)

    @classmethod
    def from_npz(cls, path: Union[str, Path]) -> "FormatSelector":
        """Load a selector saved by :meth:`to_npz`.

        Raises :class:`SelectorVersionError` (a ``ValueError``) when the
        file is not a selector artifact or was written by a different
        schema version, with the retrain hint.
        """
        path = Path(path)
        try:
            data = np.load(path)
        except (zipfile.BadZipFile, ValueError, EOFError) as exc:
            # Not an npz at all: bad zip, numpy's pickle fallback on
            # arbitrary bytes, or an empty file.
            raise SelectorVersionError(
                f"{path} is not a selector artifact ({exc}); save one "
                "with FormatSelector.to_npz or `repro train --out`"
            ) from exc
        with data:
            if "__selector_schema__" not in data:
                raise SelectorVersionError(
                    f"{path} is not a selector artifact (no "
                    "__selector_schema__ entry); save one with "
                    "FormatSelector.to_npz or `repro train --out`"
                )
            version = int(data["__selector_schema__"])
            if version != SELECTOR_SCHEMA_VERSION:
                raise SelectorVersionError(
                    f"{path} was written with selector schema "
                    f"version {version} but this build reads "
                    f"version {SELECTOR_SCHEMA_VERSION}; retrain "
                    "the artifact with `repro train`"
                )
            formats = [str(f) for f in data["formats"]]
            feature_keys = [str(k) for k in data["feature_keys"]]
            selector = cls(formats, feature_keys=feature_keys)
            for i, fmt in enumerate(formats):
                prefix = f"model/{i}/"
                kind = str(data[prefix + "__kind__"])
                family = MODEL_IO.get(kind)
                if family is None:
                    raise SelectorVersionError(
                        f"{path} holds an unknown model kind "
                        f"{kind!r} for format {fmt!r}; known "
                        f"kinds: {sorted(MODEL_IO)}"
                    )
                state = {
                    key[len(prefix):]: data[key]
                    for key in data.files
                    if key.startswith(prefix)
                    and key != prefix + "__kind__"
                }
                selector._models[fmt] = family.from_state(state)
            return selector
