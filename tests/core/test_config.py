"""AdaptiveConfig: validation, serialization, the config-only surface."""

import dataclasses

import pytest

from repro import AdaptiveConfig, AdaptiveLSH, StreamingTopK, adaptive_filter
from repro.core.config import config_with
from repro.errors import ConfigurationError


class TestValidation:
    def test_frozen(self):
        config = AdaptiveConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 3

    def test_budgets_coerced_to_int_tuple(self):
        config = AdaptiveConfig(budgets=[10.0, 20, 40])
        assert config.budgets == (10, 20, 40)

    def test_bad_selection(self):
        with pytest.raises(ConfigurationError, match="selection"):
            AdaptiveConfig(selection="nope")

    def test_bad_jump_policy(self):
        with pytest.raises(ConfigurationError, match="jump_policy"):
            AdaptiveConfig(jump_policy="psychic")

    def test_bad_cost_model(self):
        with pytest.raises(ConfigurationError, match="cost_model"):
            AdaptiveConfig(cost_model="tea-leaves")

    def test_bad_kernels(self):
        # The kernel backend knob is retired: there is one backend.
        with pytest.raises(TypeError, match="kernels"):
            AdaptiveConfig(kernels="packed")

    def test_config_with(self):
        base = AdaptiveConfig(seed=1)
        tweaked = config_with(base, seed=2, selection="random")
        assert (tweaked.seed, tweaked.selection) == (2, "random")
        assert base.seed == 1  # original untouched


class TestSerialization:
    def test_round_trip(self):
        config = AdaptiveConfig(
            budgets=(16, 64), epsilon=0.05, selection="random",
            jump_policy="lookahead", noise_factor=1.5,
        )
        again = AdaptiveConfig.from_dict(config.to_dict())
        assert again == dataclasses.replace(
            config, seed=None, cost_model="calibrate", n_jobs=None
        )

    def test_to_dict_excludes_non_portable_fields(self):
        data = AdaptiveConfig(seed=7, n_jobs=4).to_dict()
        assert "seed" not in data
        assert "n_jobs" not in data

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            AdaptiveConfig.from_dict({"warp_speed": 9})

    def test_from_dict_overrides_win(self):
        config = AdaptiveConfig.from_dict({"epsilon": 0.2}, epsilon=0.3)
        assert config.epsilon == 0.3

    @pytest.mark.parametrize("cached", [True, False])
    def test_from_dict_loads_configs_with_signature_cache(self, cached):
        # to_dict() output of releases that still had the packed-key
        # cache, as stored in their index snapshots.
        data = {
            "budgets": [20, 40, 80],
            "epsilon": 0.001,
            "noise_factor": 1.0,
            "analytic_pair_cost": 20.0,
            "pairwise_strategy": "auto",
            "selection": "largest",
            "jump_policy": "line5",
            "lookahead_samples": 32,
            "lookahead_density": 0.6,
            "signature_cache": cached,
            "pair_memo": None,
            "pair_memo_bytes": 67108864,
            "bin_index": None,
            "bin_index_bytes": 134217728,
        }
        config = AdaptiveConfig.from_dict(data)
        assert config.budgets == (20, 40, 80)
        assert "signature_cache" not in config.to_dict()
        assert not hasattr(config, "signature_cache")
        expected = dict(data)
        del expected["signature_cache"]
        assert config.to_dict() == expected

    @pytest.mark.parametrize("kernels", ["numpy", "packed", None])
    def test_from_dict_drops_retired_kernels_key(self, kernels):
        # Dicts written while the kernel backend was selectable.
        data = {**AdaptiveConfig(epsilon=0.2).to_dict(), "kernels": kernels}
        config = AdaptiveConfig.from_dict(data)
        assert config.epsilon == 0.2
        assert not hasattr(config, "kernels")
        assert "kernels" not in config.to_dict()


class TestConfigOnlySurface:
    def test_legacy_kwargs_removed(self, tiny_spotsigs):
        with pytest.raises(TypeError):
            AdaptiveLSH(
                tiny_spotsigs.store, tiny_spotsigs.rule, seed=0,
                cost_model="analytic",
            )

    def test_non_config_positional_rejected(self, tiny_spotsigs):
        with pytest.raises(ConfigurationError, match="AdaptiveConfig"):
            AdaptiveLSH(tiny_spotsigs.store, tiny_spotsigs.rule, [16, 64, 256])

    def test_trace_kwarg_removed(self, tiny_spotsigs):
        with pytest.raises(TypeError):
            AdaptiveLSH(
                tiny_spotsigs.store, tiny_spotsigs.rule,
                config=AdaptiveConfig(seed=0), trace=True,
            )

    def test_streaming_legacy_kwargs_removed(self, tiny_spotsigs):
        with pytest.raises(TypeError):
            StreamingTopK(tiny_spotsigs.store, tiny_spotsigs.rule, seed=3)

    def test_adaptive_filter_legacy_kwargs_removed(self, tiny_spotsigs):
        with pytest.raises(TypeError):
            adaptive_filter(
                tiny_spotsigs.store, tiny_spotsigs.rule, 3, seed=4,
                cost_model="analytic",
            )

    def test_config_path_is_warning_free(self, tiny_spotsigs, recwarn):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            AdaptiveLSH(
                tiny_spotsigs.store, tiny_spotsigs.rule,
                config=AdaptiveConfig(seed=0),
            )
            StreamingTopK(
                tiny_spotsigs.store, tiny_spotsigs.rule,
                config=AdaptiveConfig(seed=0),
            )


class TestConfigEquivalence:
    def test_adaptive_filter_takes_config(self, tiny_spotsigs):
        result = adaptive_filter(
            tiny_spotsigs.store, tiny_spotsigs.rule, 3,
            config=AdaptiveConfig(seed=4, cost_model="analytic"),
        )
        assert len(result.clusters) == 3
