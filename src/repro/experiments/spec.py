"""Declarative experiment manifests.

An :class:`ExperimentSpec` pins every input of a paper-style selector
evaluation — dataset, devices, candidate formats, model family, CV
protocol, seed — as one JSON-serialisable value object.  Two runs of the
same spec produce byte-identical result JSON (the acceptance property
the end-to-end suite locks down), so a manifest fully identifies its
result.

See ``docs/experiments.md`` for the manifest schema.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Optional, Tuple

from ..core.feature_space import DATASET_PRESETS
from ..devices import TESTBEDS
from ..formats.base import FORMAT_REGISTRY
from ..ml.forest import RandomForestRegressor
from ..ml.knn import KNeighborsRegressor
from ..ml.linear import RidgeRegression
from ..ml.selector import MINIMAL_FEATURES
from ..perfmodel.batch import PRECISIONS

__all__ = ["ExperimentSpec", "MODEL_FAMILIES", "PROTOCOLS", "SCALES"]

SCALES = tuple(DATASET_PRESETS)  # the core presets are the registry
PROTOCOLS = ("kfold", "lodo")

# Model families the runner can instantiate.  Factories take the spec
# seed so reseeding an experiment reseeds its models too (bagging draws),
# while two runs of one spec stay identical.
MODEL_FAMILIES = {
    "forest": lambda seed: RandomForestRegressor(
        n_estimators=25, random_state=seed
    ),
    "knn": lambda seed: KNeighborsRegressor(
        n_neighbors=5, weights="distance"
    ),
    "linear": lambda seed: RidgeRegression(alpha=1.0),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Inputs of one cross-validated selector experiment.

    ``devices=()`` means all nine testbeds; ``formats=None`` keeps each
    device's Table-II list.  ``limit`` truncates the dataset to its first
    N specs (smoke runs).  ``protocol`` is ``"kfold"`` (instances split
    into ``n_splits`` seeded folds, one selector per device per fold) or
    ``"lodo"`` (leave-one-device-out transfer: train on the other
    devices' pooled rows, evaluate on the held-out device).
    """

    scale: str = "tiny"
    devices: Tuple[str, ...] = ()
    formats: Optional[Tuple[str, ...]] = None
    precision: str = "fp64"
    max_nnz: int = 80_000
    limit: Optional[int] = None
    protocol: str = "kfold"
    n_splits: int = 5
    seed: int = 0
    model: str = "forest"
    feature_keys: Tuple[str, ...] = tuple(MINIMAL_FEATURES)

    def __post_init__(self):
        # Normalise list inputs (JSON round-trips produce lists).
        for name in ("devices", "feature_keys"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.formats is not None:
            object.__setattr__(self, "formats", tuple(self.formats))
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` with an actionable message on bad input."""
        if self.scale not in SCALES:
            raise ValueError(
                f"unknown scale {self.scale!r}; available: {list(SCALES)}"
            )
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; "
                f"available: {list(PROTOCOLS)}"
            )
        if self.model not in MODEL_FAMILIES:
            raise ValueError(
                f"unknown model {self.model!r}; "
                f"available: {sorted(MODEL_FAMILIES)}"
            )
        if self.precision not in PRECISIONS:
            raise ValueError(
                f"unknown precision {self.precision!r}; "
                f"available: {sorted(PRECISIONS)}"
            )
        for dev in self.devices:
            if dev not in TESTBEDS:
                raise ValueError(
                    f"unknown device {dev!r}; "
                    f"available: {sorted(TESTBEDS)}"
                )
        if len(set(self.devices)) != len(self.devices):
            # A duplicated device would silently double-sweep and
            # double-count its folds in the summary.
            raise ValueError(
                f"duplicate devices in {list(self.devices)}"
            )
        for fmt in self.formats or ():
            if fmt not in FORMAT_REGISTRY:
                raise ValueError(
                    f"unknown format {fmt!r}; "
                    f"available: {sorted(FORMAT_REGISTRY)}"
                )
        if self.formats is not None and \
                len(set(self.formats)) != len(self.formats):
            raise ValueError(
                f"duplicate formats in {list(self.formats)}"
            )
        if self.protocol == "kfold" and self.n_splits < 2:
            raise ValueError("n_splits must be >= 2 for k-fold CV")
        if (self.protocol == "kfold" and self.limit is not None
                and self.limit < self.n_splits):
            # Statically doomed: no device can ever see more instances
            # than ``limit`` — reject before the sweep, not after it.
            raise ValueError(
                f"limit={self.limit} provides fewer instances than "
                f"n_splits={self.n_splits}; lower --folds or raise "
                "--limit"
            )
        if self.protocol == "lodo" and len(self.device_names) < 2:
            raise ValueError(
                "leave-one-device-out needs at least two devices"
            )
        if self.max_nnz < 1:
            raise ValueError("max_nnz must be >= 1")
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be >= 1 (or omitted)")
        if not self.feature_keys:
            raise ValueError("need at least one feature key")

    # ------------------------------------------------------------------
    @property
    def device_names(self) -> Tuple[str, ...]:
        """Resolved device list (``()`` expands to all testbeds)."""
        return self.devices or tuple(TESTBEDS)

    def model_factory(self):
        """Zero-argument factory for this spec's regressor family."""
        family, seed = MODEL_FAMILIES[self.model], self.seed
        return lambda: family(seed)

    def candidate_formats(self, device) -> Tuple[str, ...]:
        """Candidate formats on one device (explicit list or Table-II)."""
        return tuple(self.formats) if self.formats else tuple(device.formats)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out = asdict(self)
        out["formats"] = list(self.formats) if self.formats else None
        out["devices"] = list(self.devices)
        out["feature_keys"] = list(self.feature_keys)
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown experiment spec keys {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**payload)
