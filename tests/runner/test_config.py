"""RunConfig: the one way to say how a sweep executes."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.runner import Cell, RunConfig, run_cells
from repro.runner.resilience import RetryPolicy
from repro.store import LocalFileStore

from .helpers import square


class TestRunConfig:
    def test_defaults_run_inline_without_a_store(self):
        cfg = RunConfig()
        assert cfg.jobs == 1
        assert cfg.store is None
        assert cfg.open_store() is None
        assert cfg.policy() == RetryPolicy()

    def test_policy_mirrors_resilience_fields(self):
        cfg = RunConfig(retries=2, backoff_base=0.1, backoff_cap=1.0,
                        cell_timeout=5.0, keep_going=True)
        assert cfg.policy() == RetryPolicy(
            retries=2, backoff_base=0.1, backoff_cap=1.0,
            cell_timeout=5.0, keep_going=True)

    def test_store_field_accepts_url_path_and_instance(self, tmp_path):
        by_url = RunConfig(store=f"local:{tmp_path}/a").open_store()
        assert isinstance(by_url, LocalFileStore)
        by_path = RunConfig(store=tmp_path / "b").open_store()
        assert isinstance(by_path, LocalFileStore)
        inst = LocalFileStore(tmp_path / "c")
        assert RunConfig(store=inst).open_store() is inst

    def test_replace_returns_a_modified_copy(self):
        cfg = RunConfig(jobs=2)
        other = cfg.replace(retries=3)
        assert other.jobs == 2
        assert other.retries == 3
        assert cfg.retries == 0  # original untouched (frozen)

    def test_invalid_resilience_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            RunConfig(retries=-1)
        with pytest.raises(ConfigurationError):
            RunConfig(cell_timeout=0)

    def test_queue_fields_validated(self, tmp_path):
        with pytest.raises(ConfigurationError, match="queue_lease"):
            RunConfig(store=tmp_path, queue_lease=0.0)
        with pytest.raises(ConfigurationError, match="queue_renew_interval"):
            RunConfig(queue_renew_interval=-1.0)
        with pytest.raises(ConfigurationError, match="store_retries"):
            RunConfig(store_retries=-1)


class TestRunnerEntryPoints:
    def cells(self, n=3):
        return [Cell("t", (i,), square, (None, i)) for i in range(n)]

    def test_run_cells_accepts_run_config(self, tmp_path, recwarn):
        cfg = RunConfig(store=LocalFileStore(tmp_path))
        assert run_cells(self.cells(), cfg) == [0, 1, 4]
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_run_cells_rejects_removed_cache_alias(self, tmp_path):
        with pytest.raises(TypeError, match="cache"):
            run_cells(self.cells(), cache=LocalFileStore(tmp_path))

    def test_experiment_run_accepts_run_config(self, capsys):
        from repro.experiments.registry import get_experiment

        spec = get_experiment("fig3")
        default = spec.run(spec.config("smoke"))
        capsys.readouterr()
        modern = spec.run(spec.config("smoke"),
                          run_config=RunConfig(jobs=1))
        assert modern == default
