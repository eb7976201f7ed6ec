"""Episode configuration loading, validation, and provenance hashing."""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import pytest

from crisishedge.config import (
    BootstrapConfig,
    CrisisEpisode,
    CVConfig,
    config_hash,
    load_episode,
    parse_feature_schema,
)
from crisishedge.errors import ConfigError
from crisishedge.hedge import Residency
from crisishedge.qreg import FeatureSchema


def minimal_episode(**overrides) -> CrisisEpisode:
    fields = dict(
        country="demo",
        crisis_date="2018-08-13",
        window_start="2017-01",
        window_end="2019-12",
        residency=(Residency.LOCAL,),
        series_manifest=Path("manifest.yaml"),
        feature_schema=FeatureSchema(base_features=("policy_rate",)),
    )
    fields.update(overrides)
    return CrisisEpisode(**fields)


VALID_YAML = """\
schema_version: 1
country: demo
crisis_date: 2018-08-13
window_start: 2017-01
window_end: 2019-12
residency: [local, foreign]
series_manifest: manifest.yaml
criterion: bic
quantile_override: 0.12
bootstrap:
  replications: 500
  seed: 7
cv:
  initial_window: 24
  step: 6
  force_test_month: 2018-08
features:
  base: [policy_rate, m2_growth]
  lags:
    m2_growth: [1, 3]
  event_dummies:
    regime_break: [0, 1]
  interactions:
    - [policy_rate, m2_growth_lag1]
"""


class TestCrisisEpisode:
    def test_crisis_date_truncates_to_month(self):
        episode = minimal_episode(crisis_date="2018-08-13")
        assert episode.crisis_month == "2018-08"

    def test_crisis_must_fall_inside_window(self):
        with pytest.raises(ConfigError, match="inside"):
            minimal_episode(crisis_date="2020-06-01")
        with pytest.raises(ConfigError, match="inside"):
            minimal_episode(crisis_date="2017-01-15")

    def test_crisis_at_window_end_allowed(self):
        episode = minimal_episode(crisis_date="2019-12-31")
        assert episode.crisis_month == "2019-12"

    def test_empty_country_rejected(self):
        with pytest.raises(ConfigError, match="country"):
            minimal_episode(country="")

    def test_malformed_stamps_rejected(self):
        with pytest.raises(ConfigError):
            minimal_episode(crisis_date="not-a-date")
        with pytest.raises(ConfigError):
            minimal_episode(window_start="2017-13")

    def test_empty_residency_rejected(self):
        with pytest.raises(ConfigError, match="residency"):
            minimal_episode(residency=())

    def test_duplicate_residency_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            minimal_episode(residency=(Residency.LOCAL, Residency.LOCAL))

    def test_residency_strings_coerced(self):
        episode = minimal_episode(residency=("foreign",))
        assert episode.residency == (Residency.FOREIGN,)

    def test_criterion_validated(self):
        with pytest.raises(ConfigError, match="criterion"):
            minimal_episode(criterion="hqc")

    def test_quantile_override_range(self):
        with pytest.raises(ConfigError):
            minimal_episode(quantile_override=(0.6,))
        with pytest.raises(ConfigError):
            minimal_episode(quantile_override=(0.0,))
        with pytest.raises(ConfigError):
            minimal_episode(quantile_override=())

    def test_active_override_takes_first_entry(self):
        episode = minimal_episode(quantile_override=(0.1, 0.15, 0.2))
        assert episode.active_override == 0.1
        assert minimal_episode().active_override is None


class TestKnobValidation:
    def test_bootstrap_replication_floor(self):
        with pytest.raises(ConfigError, match="100"):
            BootstrapConfig(replications=99)

    def test_bootstrap_block_length_floor(self):
        with pytest.raises(ConfigError):
            BootstrapConfig(block_length=0)

    def test_cv_initial_window_floor(self):
        with pytest.raises(ConfigError):
            CVConfig(initial_window=9, step=6)

    def test_cv_step_floor(self):
        with pytest.raises(ConfigError):
            CVConfig(initial_window=24, step=0)


class TestParseFeatureSchema:
    def test_full_block(self):
        schema = parse_feature_schema(
            {
                "base": ["a", "b"],
                "lags": {"b": [1, 3]},
                "event_dummies": {"d": [0]},
                "interactions": [["a", "b_lag1"]],
                "excluded": ["z"],
            }
        )
        assert schema.base_features == ("a", "b")
        assert schema.lag_spec == {"b": (1, 3)}
        assert schema.event_dummies == {"d": (0,)}
        assert schema.interaction_pairs == (("a", "b_lag1"),)
        assert schema.excluded == ("z",)

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            parse_feature_schema(["a", "b"])

    def test_lags_must_be_mapping(self):
        with pytest.raises(ConfigError, match="lags"):
            parse_feature_schema({"base": ["a"], "lags": ["a"]})

    def test_interaction_arity_enforced(self):
        with pytest.raises(ConfigError, match="2-element"):
            parse_feature_schema({"base": ["a", "b"], "interactions": [["a", "b", "c"]]})


class TestLoadEpisode:
    def test_happy_path(self, tmp_path):
        cfg = tmp_path / "episode.yaml"
        cfg.write_text(VALID_YAML)
        episode = load_episode(cfg)
        assert episode.country == "demo"
        assert episode.crisis_date == "2018-08-13"
        assert episode.crisis_month == "2018-08"
        assert episode.residency == (Residency.LOCAL, Residency.FOREIGN)
        assert episode.series_manifest == tmp_path / "manifest.yaml"
        assert episode.criterion == "bic"
        assert episode.quantile_override == (0.12,)
        assert episode.bootstrap.replications == 500
        assert episode.bootstrap.seed == 7
        assert episode.cv.initial_window == 24
        assert episode.cv.force_test_month == "2018-08"
        assert episode.feature_schema.interaction_pairs == (("policy_rate", "m2_growth_lag1"),)
        assert episode.source_path == cfg

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_episode(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        cfg = tmp_path / "broken.yaml"
        cfg.write_text("country: [unclosed\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_episode(cfg)

    def test_non_mapping_document(self, tmp_path):
        cfg = tmp_path / "list.yaml"
        cfg.write_text("- a\n- b\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_episode(cfg)

    def test_schema_version_enforced(self, tmp_path):
        cfg = tmp_path / "old.yaml"
        cfg.write_text(VALID_YAML.replace("schema_version: 1", "schema_version: 2"))
        with pytest.raises(ConfigError, match="schema_version"):
            load_episode(cfg)

    @pytest.mark.parametrize("key", ["country", "crisis_date", "residency", "features"])
    def test_missing_required_key(self, tmp_path, key):
        lines = [
            line for line in VALID_YAML.splitlines() if not line.startswith(f"{key}:")
        ]
        cfg = tmp_path / "partial.yaml"
        cfg.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=key):
            load_episode(cfg)

    def test_scalar_residency_coerced(self, tmp_path):
        cfg = tmp_path / "scalar.yaml"
        cfg.write_text(VALID_YAML.replace("residency: [local, foreign]", "residency: local"))
        assert load_episode(cfg).residency == (Residency.LOCAL,)

    def test_unknown_residency_rejected(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(VALID_YAML.replace("residency: [local, foreign]", "residency: offshore"))
        with pytest.raises(ConfigError):
            load_episode(cfg)

    def test_absolute_manifest_path_kept(self, tmp_path):
        cfg = tmp_path / "abs.yaml"
        cfg.write_text(
            VALID_YAML.replace("series_manifest: manifest.yaml", "series_manifest: /data/m.yaml")
        )
        assert load_episode(cfg).series_manifest == Path("/data/m.yaml")

    def test_override_list_preserved(self, tmp_path):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(
            VALID_YAML.replace("quantile_override: 0.12", "quantile_override: [0.1, 0.15, 0.2]")
        )
        assert load_episode(cfg).quantile_override == (0.1, 0.15, 0.2)


class TestConfigHash:
    def test_file_backed_hash_tracks_bytes(self, tmp_path):
        cfg = tmp_path / "episode.yaml"
        cfg.write_text(VALID_YAML)
        first = config_hash(load_episode(cfg))
        assert first == config_hash(load_episode(cfg))
        cfg.write_text(VALID_YAML.replace("seed: 7", "seed: 8"))
        assert config_hash(load_episode(cfg)) != first

    def test_override_perturbs_file_hash(self, tmp_path):
        cfg = tmp_path / "episode.yaml"
        cfg.write_text(VALID_YAML)
        episode = load_episode(cfg)
        swept = dataclasses.replace(episode, quantile_override=(0.2,))
        assert config_hash(swept) != config_hash(episode)
        assert config_hash(swept) == config_hash(
            dataclasses.replace(episode, quantile_override=(0.2,))
        )

    @staticmethod
    def file_hash(config: Path, override: tuple[float, ...] | None) -> str:
        digest = hashlib.sha256(config.read_bytes())
        if override:
            digest.update(f"override={','.join(repr(t) for t in override)}".encode())
        return digest.hexdigest()

    def test_loaded_episode_keeps_its_file_hash(self, tmp_path):
        cfg = tmp_path / "episode.yaml"
        cfg.write_text(VALID_YAML)
        episode = load_episode(cfg)
        assert config_hash(episode) == self.file_hash(cfg, (0.12,))
        assert config_hash(dataclasses.replace(episode)) == self.file_hash(cfg, (0.12,))
        swept = dataclasses.replace(episode, quantile_override=(0.2, 0.25))
        assert config_hash(swept) == self.file_hash(cfg, (0.2, 0.25))
        cleared = dataclasses.replace(episode, quantile_override=None)
        assert config_hash(cleared) == self.file_hash(cfg, None)

    def test_episode_changed_in_memory_leaves_its_file_hash(self, tmp_path):
        cfg = tmp_path / "episode.yaml"
        cfg.write_text(VALID_YAML)
        episode = load_episode(cfg)
        changed = [
            dataclasses.replace(episode, cv=CVConfig(24, 6)),
            dataclasses.replace(episode, bootstrap=BootstrapConfig(300, None, 1)),
            dataclasses.replace(
                episode, bootstrap=dataclasses.replace(episode.bootstrap, seed=8)
            ),
        ]
        hashes = {config_hash(e) for e in [episode, *changed]}
        assert len(hashes) == 4
        assert config_hash(changed[0]) == config_hash(
            dataclasses.replace(episode, cv=CVConfig(24, 6))
        )
        # An override on a changed episode still changes its hash.
        assert config_hash(dataclasses.replace(changed[0], quantile_override=(0.2,))) not in hashes

    def test_shipped_fixtures_hash_their_bytes(self, fixture_root):
        configs = sorted(fixture_root.glob("*/episode.yaml"))
        assert len(configs) == 4
        for config in configs:
            episode = load_episode(config)
            assert config_hash(episode) == self.file_hash(config, episode.quantile_override)

    def test_in_memory_hash_deterministic(self):
        assert config_hash(minimal_episode()) == config_hash(minimal_episode())
        assert config_hash(minimal_episode()) != config_hash(
            minimal_episode(country="other")
        )

    def test_in_memory_hash_covers_cv(self):
        hashes = {
            config_hash(minimal_episode(cv=cv))
            for cv in (None, CVConfig(36, 12), CVConfig(36, 6), CVConfig(24, 6),
                       CVConfig(36, 12, force_test_month="2018-01"))
        }
        assert len(hashes) == 5
        assert config_hash(minimal_episode(cv=CVConfig(36, 12))) == config_hash(
            minimal_episode(cv=CVConfig(36, 12))
        )
