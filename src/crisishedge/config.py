"""Crisis-episode configuration: schema, loading, validation, provenance.

One YAML file defines a run: the country, the crisis month inside its
analysis window, the residency profiles to report, where the series manifest
lives, the feature schema for the quantile regressions, and the bootstrap /
cross-validation knobs.  The raw file bytes are hashed into the run
provenance so outputs are traceable to an exact configuration.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

import yaml

from . import months as mo
from .errors import ConfigError
from .hedge import Residency
from .qreg import MIN_FIT_ROWS, FeatureSchema

CONFIG_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BootstrapConfig:
    replications: int = 1000
    block_length: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.replications < 100:
            raise ConfigError(
                f"bootstrap replications must be >= 100, got {self.replications}"
            )
        if self.block_length is not None and self.block_length < 1:
            raise ConfigError("block length must be >= 1")


@dataclass(frozen=True)
class CVConfig:
    initial_window: int
    step: int
    force_test_month: str | None = None

    def __post_init__(self) -> None:
        if self.initial_window < MIN_FIT_ROWS:
            raise ConfigError(f"cv initial_window must be >= {MIN_FIT_ROWS}")
        if self.step < 1:
            raise ConfigError("cv step must be >= 1")


@dataclass(frozen=True)
class CrisisEpisode:
    """Everything one pipeline run needs to know.

    ``crisis_date`` may carry day precision (as crisis dates are usually
    quoted); all computation truncates it to the month.  ``quantile_override``
    replaces the data-driven unified tail level; only its first entry applies
    to a single run, the rest document sweep intent.
    """

    country: str
    crisis_date: str
    window_start: str
    window_end: str
    residency: tuple[Residency, ...]
    series_manifest: Path
    feature_schema: FeatureSchema
    quantile_override: tuple[float, ...] | None = None
    bootstrap: BootstrapConfig = field(default_factory=BootstrapConfig)
    cv: CVConfig | None = None
    criterion: str = "aic"
    output_dir: Path | None = None
    source_path: Path | None = None

    def __post_init__(self) -> None:
        if not self.country:
            raise ConfigError("country must be non-empty")
        try:
            mo.parse_stamp(self.crisis_date)
            for stamp in (self.window_start, self.window_end):
                if not mo.is_month(stamp):
                    raise ValueError(f"{stamp!r} must be a month stamp (YYYY-MM)")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        crisis = self.crisis_month
        if not (self.window_start < crisis <= self.window_end):
            raise ConfigError(
                f"crisis month {crisis} must lie inside ({self.window_start}, "
                f"{self.window_end}]"
            )
        if not self.residency:
            raise ConfigError("residency set must be non-empty")
        if len(set(self.residency)) != len(self.residency):
            raise ConfigError("duplicate residency entries")
        object.__setattr__(
            self, "residency", tuple(Residency(r) for r in self.residency)
        )
        if self.criterion not in ("aic", "bic"):
            raise ConfigError(f"criterion must be aic or bic, got {self.criterion!r}")
        if self.quantile_override is not None:
            taus = tuple(float(t) for t in self.quantile_override)
            if not taus:
                raise ConfigError("quantile_override cannot be an empty list")
            for t in taus:
                if not 0.0 < t < 0.5:
                    raise ConfigError(
                        f"quantile override {t} must lie in (0, 0.5)"
                    )
            object.__setattr__(self, "quantile_override", taus)
        object.__setattr__(self, "series_manifest", Path(self.series_manifest))
        if self.output_dir is not None:
            object.__setattr__(self, "output_dir", Path(self.output_dir))

    @property
    def crisis_month(self) -> str:
        return mo.month_of(self.crisis_date)

    @property
    def active_override(self) -> float | None:
        return self.quantile_override[0] if self.quantile_override else None


def _as_stamp(value: Any) -> str:
    # yaml parses unquoted ISO dates into date objects
    return value.isoformat() if hasattr(value, "isoformat") else str(value)


def parse_feature_schema(block: Mapping[str, Any]) -> FeatureSchema:
    if not isinstance(block, Mapping):
        raise ConfigError("features section must be a mapping")

    def lag_map(key: str) -> dict[str, tuple[int, ...]]:
        raw = block.get(key) or {}
        if not isinstance(raw, Mapping):
            raise ConfigError(f"features.{key} must be a mapping")
        return {str(k): tuple(int(l) for l in v) for k, v in raw.items()}

    pairs = []
    for pair in block.get("interactions") or []:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"interaction must be a 2-element list, got {pair!r}")
        pairs.append((str(pair[0]), str(pair[1])))
    return FeatureSchema(
        base_features=tuple(str(f) for f in block.get("base") or ()),
        lag_spec=lag_map("lags"),
        event_dummies=lag_map("event_dummies"),
        interaction_pairs=tuple(pairs),
        excluded=tuple(str(f) for f in block.get("excluded") or ()),
    )


def load_episode(path: str | Path) -> CrisisEpisode:
    """Parse and validate an episode config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    if doc.get("schema_version") != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: unsupported schema_version {doc.get('schema_version')!r}"
        )
    for key in ("country", "crisis_date", "window_start", "window_end",
                "residency", "series_manifest", "features"):
        if key not in doc:
            raise ConfigError(f"{path}: missing required key {key!r}")

    boot_block = doc.get("bootstrap") or {}
    if not isinstance(boot_block, Mapping):
        raise ConfigError(f"{path}: bootstrap section must be a mapping")
    bootstrap = BootstrapConfig(
        replications=int(boot_block.get("replications", 1000)),
        block_length=(
            int(boot_block["block_length"])
            if boot_block.get("block_length") is not None
            else None
        ),
        seed=int(boot_block.get("seed", 0)),
    )
    cv_block = doc.get("cv")
    cv = None
    if cv_block is not None:
        if not isinstance(cv_block, Mapping):
            raise ConfigError(f"{path}: cv section must be a mapping")
        force = cv_block.get("force_test_month")
        cv = CVConfig(
            initial_window=int(cv_block.get("initial_window", 24)),
            step=int(cv_block.get("step", 6)),
            force_test_month=_as_stamp(force) if force is not None else None,
        )

    override = doc.get("quantile_override")
    if override is not None and not isinstance(override, (list, tuple)):
        override = [override]

    residency = doc["residency"]
    if isinstance(residency, str):
        residency = [residency]
    try:
        residency = tuple(Residency(str(r)) for r in residency)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    manifest = Path(str(doc["series_manifest"]))
    if not manifest.is_absolute():
        manifest = path.parent / manifest
    out_dir = doc.get("output_dir")

    return CrisisEpisode(
        country=str(doc["country"]),
        crisis_date=_as_stamp(doc["crisis_date"]),
        window_start=_as_stamp(doc["window_start"]),
        window_end=_as_stamp(doc["window_end"]),
        residency=residency,
        series_manifest=manifest,
        feature_schema=parse_feature_schema(doc["features"]),
        quantile_override=(
            tuple(float(t) for t in override) if override is not None else None
        ),
        bootstrap=bootstrap,
        cv=cv,
        criterion=str(doc.get("criterion", "aic")),
        output_dir=Path(str(out_dir)) if out_dir else None,
        source_path=path,
    )


def config_hash(episode: CrisisEpisode) -> str:
    """SHA-256 provenance of the run configuration.

    File-backed configs hash their exact bytes, plus any sweep override; an
    in-memory episode, or one changed since it was loaded, hashes a canonical
    JSON rendering of its fields (after the file's bytes, if any).
    """
    digest = hashlib.sha256()
    path = episode.source_path
    if path is not None and path.exists():
        raw = path.read_bytes()
        digest.update(raw)
        if episode.quantile_override:
            digest.update(
                f"override={','.join(repr(t) for t in episode.quantile_override)}".encode()
            )
        if replace(episode, quantile_override=None) == _parsed(path, raw):
            return digest.hexdigest()
    payload = {
        "country": episode.country,
        "crisis_date": episode.crisis_date,
        "window": [episode.window_start, episode.window_end],
        "residency": [r.value for r in episode.residency],
        "manifest": str(episode.series_manifest),
        "override": list(episode.quantile_override or ()),
        "bootstrap": [episode.bootstrap.replications,
                      episode.bootstrap.block_length, episode.bootstrap.seed],
        "criterion": episode.criterion,
        "cv": None if episode.cv is None else [
            episode.cv.initial_window, episode.cv.step, episode.cv.force_test_month
        ],
        "features": {
            "base": list(episode.feature_schema.base_features),
            "lags": {k: list(v) for k, v in episode.feature_schema.lag_spec.items()},
            "dummies": {k: list(v) for k, v in episode.feature_schema.event_dummies.items()},
            "interactions": [list(p) for p in episode.feature_schema.interaction_pairs],
        },
    }
    digest.update(json.dumps(payload, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


# load_episode(path) without its override, or None once the file no longer
# loads; ``raw`` keys the cache to the file's bytes.
@functools.lru_cache(maxsize=8)
def _parsed(path: Path, raw: bytes) -> CrisisEpisode | None:
    try:
        return replace(load_episode(path), quantile_override=None)
    except ConfigError:
        return None
