"""Experiment registry round-trip."""

import warnings

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ExperimentSpec,
    experiment_names,
    get_experiment,
    iter_experiments,
    register_experiment,
)
from repro.experiments.fig5 import Fig5Config, format_fig5, run_fig5
from repro.experiments.registry import register, unregister
from repro.experiments.tableii import TableIIConfig
from repro.runner import Cell


def test_all_paper_artifacts_registered():
    assert experiment_names() == [
        "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
        "resizing", "tableII"]


def test_iter_experiments_sorted():
    assert [s.name for s in iter_experiments()] == experiment_names()


def test_get_experiment_unknown_lists_registered():
    with pytest.raises(KeyError, match="fig2"):
        get_experiment("fig99")


def test_spec_matches_legacy_figures_triple():
    """Registry lookup supplies exactly what the old FIGURES dict did:
    the config class, a runner and the formatter — with identical output."""
    spec = get_experiment("fig5")
    assert spec.config_cls is Fig5Config
    assert spec.format is format_fig5
    config = spec.config("smoke")
    assert config == Fig5Config.smoke()
    assert spec.format(spec.run(config)) == format_fig5(run_fig5(config))


def test_config_rejects_unknown_scale():
    with pytest.raises(ConfigurationError, match="warp"):
        get_experiment("fig3").config("warp")


def test_tableii_is_a_registered_spec():
    spec = get_experiment("tableII")
    assert spec.config_cls is TableIIConfig
    assert "32 cores" in spec.format(spec.run(spec.config("smoke")))


def test_duplicate_registration_rejected():
    spec = get_experiment("fig2")
    with pytest.raises(ConfigurationError, match="already registered"):
        register(spec)
    # replace=True is the escape hatch (idempotent here).
    register(spec, replace=True)


def test_register_unregister_round_trip():
    @register_experiment(name="figTest", config_cls=Fig5Config,
                         reduce=lambda config, results: sum(results),
                         format=str, description="test-only")
    def cells_fig_test(config):
        return [Cell("figTest", (i,), _double, (config, i)) for i in range(3)]

    try:
        spec = get_experiment("figTest")
        assert isinstance(spec, ExperimentSpec)
        assert spec.description == "test-only"
        assert spec.run(Fig5Config.smoke()) == 6
    finally:
        unregister("figTest")
    with pytest.raises(KeyError):
        get_experiment("figTest")


def _double(config, i):
    return 2 * i


def test_figures_alias_is_gone():
    """The deprecated FIGURES mapping was removed with the deprecation
    cycle; the registry is the only way to enumerate experiments."""
    import repro.experiments.__main__ as cli

    assert not hasattr(cli, "FIGURES")
    assert "FIGURES" not in cli.__all__


def test_registry_access_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        get_experiment("fig5")
        experiment_names()
