"""Tests for the calibrated SPEC CPU2006 benchmark profiles."""

import hashlib
from array import array

import pytest

from repro.errors import ConfigurationError
from repro.experiments import experiment_names, get_experiment
from repro.trace import access, spec
from repro.trace.spec import (
    BENCHMARKS,
    KB,
    MB,
    benchmark_names,
    benchmark_trace,
    get_profile,
    lines_for_bytes,
)

PAPER_SET = {"mcf", "omnetpp", "gromacs", "h264ref", "astar", "cactusadm",
             "libquantum", "lbm"}


def test_all_paper_benchmarks_modeled():
    assert set(benchmark_names()) == PAPER_SET


def test_lines_for_bytes():
    assert lines_for_bytes(MB) == 16384
    assert lines_for_bytes(512 * KB) == 8192


def test_get_profile_unknown():
    with pytest.raises(ConfigurationError):
        get_profile("gcc")


def test_traces_deterministic():
    a = benchmark_trace("mcf", 2000, seed=4)
    b = benchmark_trace("mcf", 2000, seed=4)
    assert list(a.addresses) == list(b.addresses)
    assert list(a.gaps) == list(b.gaps)


def test_seed_changes_trace():
    a = benchmark_trace("mcf", 2000, seed=1)
    b = benchmark_trace("mcf", 2000, seed=2)
    assert list(a.addresses) != list(b.addresses)


def test_benchmarks_have_distinct_streams():
    a = benchmark_trace("mcf", 1000, seed=0)
    b = benchmark_trace("astar", 1000, seed=0)
    assert list(a.addresses) != list(b.addresses)


def test_addr_base_separates_threads():
    a = benchmark_trace("mcf", 500, seed=0, addr_base=0)
    b = benchmark_trace("mcf", 500, seed=0, addr_base=1 << 40)
    assert set(a.addresses).isdisjoint(set(b.addresses))


def test_scale_shrinks_footprint():
    big = benchmark_trace("mcf", 20_000, seed=0, scale=1.0)
    small = benchmark_trace("mcf", 20_000, seed=0, scale=0.125)
    assert small.footprint() < big.footprint()


def test_scale_validation():
    with pytest.raises(ConfigurationError):
        benchmark_trace("mcf", 100, scale=0.0)


@pytest.mark.parametrize("name", sorted(PAPER_SET))
def test_every_profile_generates(name):
    t = benchmark_trace(name, 3_000, seed=1)
    assert len(t) == 3_000
    assert t.instructions > 3_000


def test_streaming_benchmarks_have_negligible_reuse():
    """lbm and libquantum are the paper's no-reuse workloads."""
    for name in ("lbm", "libquantum"):
        t = benchmark_trace(name, 10_000, seed=0)
        assert t.footprint() >= 9_500


def test_memory_intensity_ordering():
    """lbm is the most memory-intensive (lowest instructions per access),
    h264ref the least (Section VII-C roles)."""
    gaps = {name: BENCHMARKS[name].mean_gap for name in PAPER_SET}
    assert gaps["lbm"] == min(gaps.values())
    assert gaps["h264ref"] == max(gaps.values())
    assert gaps["mcf"] < gaps["gromacs"]


def test_gromacs_working_set_scale():
    """gromacs's reuse is concentrated well under ~40K lines (its ~256KB
    working-set role in the QoS experiments)."""
    t = benchmark_trace("gromacs", 30_000, seed=0)
    assert t.footprint() < 15_000


def test_mcf_reuse_spans_scales():
    """mcf touches a working set far larger than gromacs's at the same
    trace length (its cache-hungry, associativity-sensitive role)."""
    mcf = benchmark_trace("mcf", 30_000, seed=0)
    gromacs = benchmark_trace("gromacs", 30_000, seed=0)
    assert mcf.footprint() > 1.5 * gromacs.footprint()


#: ``(length, seed, addr_base, scale)`` points at which every profile's
#: synthesized bytes are pinned.  At the tiny scale every reuse component,
#: lbm's and libquantum's fixed scan depths included, reaches into the
#: stack within the trace; the second point is a scaled thread's.
PIN_POINTS = [(3_000, 0, 0, 0.001), (2_000, 7, 3 << 40, 0.125)]

#: sha256 over the int64 bytes of ``addresses``, ``gaps`` and ``next_use``,
#: one digest per point.  Any change to synthesis (stack bookkeeping, RNG
#: draw order, a profile's parameters) moves them.
TRACE_SHA256 = {
    "astar": ("6f1607f216dace6a6472f3fb41307aa348fad37abe85db6a77f1252f05ba5c4b",
              "da2055e359a4ec7b7d4aebc902db48313d90fc57e4633b9f0014eaceaf520dea"),
    "cactusadm": ("70ae03c78b604774dc32533f300be6c123f2585ce3115657dbcd846f1bc4cc40",
                  "b1f1e617ebfcdec70f03e6ba3c4bfb89fb1ef373b789c27c58d647c821d058ae"),
    "gromacs": ("bb1114b2bb75d17c6c95f136a00185d2e44b82070de7ddb798b035069fea0545",
                "ec1b4be51e8f883b1b99c1fa4861bceea9fa5e83307b87ba32548937178dc418"),
    "h264ref": ("0b607e7f23837a800fd4ff562d5d397b1e635696af9710b4a9ff6e3883716a8a",
                "b3a75651ee14134513fb912212624ab8391c4fabf53236ae5b6775630c0c2b14"),
    "lbm": ("d7dce29144d312c9d5cf66ea17a0411a3e50bc78c690bccb7e092e657df1eddd",
            "347bb87495ff9de88b9c6e59c5243387901e1e5f7681a0105c081db22238546a"),
    "libquantum": ("d8a1710b7e9684c160b37b9ed1c58d36e0950e89015011b5764335169cc71be3",
                   "df8e1721fcda3a7da9ab0007a97d3b915a28271bcc12e9b2e7a64c77257b6f29"),
    "mcf": ("27559ac60875e675c59be7a4b90d2b4685c7ac3070bf9064987afe9ac08e6fbe",
            "39901fdea4771859d2292c6d7168916793af08f651b8f7c56adf73d7d75beb47"),
    "omnetpp": ("66df32e07acb8117f0d9511fc3c2583e395f1947b2674d9117f4c458e564baa6",
                "f61b87a9b4679c6e073d5c7ca280bf9d1e152c8a7fcff8a653baf90d792d9019"),
}


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_synthesized_bytes_are_pinned(name):
    digests = []
    for length, seed, addr_base, scale in PIN_POINTS:
        trace = BENCHMARKS[name].trace(length, seed=seed,
                                       addr_base=addr_base, scale=scale)
        h = hashlib.sha256()
        for values in (trace.addresses, trace.gaps, trace.next_use):
            h.update(array("q", values).tobytes())
        digests.append(h.hexdigest())
    assert tuple(digests) == TRACE_SHA256[name]


def _fresh(name, length, *, seed, addr_base, scale):
    return get_profile(name).generator(
        seed=seed, addr_base=addr_base, scale=scale).generate(length)


class TestTraceMemo:
    KEY = dict(name="mcf", length=1_000, seed=3, addr_base=1 << 40,
               scale=0.125)

    @pytest.fixture
    def memo(self, monkeypatch):
        memo = spec._TraceMemo()
        monkeypatch.setattr(spec, "_MEMO", memo)
        return memo

    @pytest.fixture
    def budget_of_2500(self, monkeypatch):
        monkeypatch.setattr(spec, "TRACE_MEMO_BYTES",
                            2_500 * spec.TRACE_MEMO_BYTES_PER_ACCESS)

    def test_same_arguments_share_one_trace(self, memo, monkeypatch):
        annotations = []
        annotate = access.annotate_next_use
        monkeypatch.setattr(access, "annotate_next_use",
                            lambda a: annotations.append(1) or annotate(a))
        first = benchmark_trace(**self.KEY)
        again = get_profile("mcf").trace(1_000, seed=3, addr_base=1 << 40,
                                         scale=0.125)
        assert again is first
        assert first.next_use is again.next_use
        assert len(annotations) == 1

    @pytest.mark.parametrize("field,value", [
        ("name", "astar"), ("length", 999), ("seed", 4),
        ("addr_base", 2 << 40), ("scale", 0.25)])
    def test_each_key_field_selects_its_own_trace(self, memo, field, value):
        key = dict(self.KEY)
        first = benchmark_trace(**key)
        key[field] = value
        other = benchmark_trace(**key)
        fresh = _fresh(**key)
        assert other is not first
        assert other.addresses == fresh.addresses
        assert other.gaps == fresh.gaps
        assert other.name == fresh.name

    def test_budget_evicts_the_least_recently_used(self, memo,
                                                   budget_of_2500):
        mcf = get_profile("mcf")
        a = mcf.trace(1_000, seed=1)
        b = mcf.trace(1_000, seed=2)
        assert mcf.trace(1_000, seed=1) is a
        mcf.trace(1_000, seed=3)
        assert [key[2] for key in memo.traces] == [1, 3]
        assert memo.accesses == sum(map(len, memo.traces.values()))
        assert (memo.accesses * spec.TRACE_MEMO_BYTES_PER_ACCESS
                <= spec.TRACE_MEMO_BYTES)
        assert mcf.trace(1_000, seed=1) is a
        assert mcf.trace(1_000, seed=2) is not b

    def test_newest_trace_is_kept_even_over_budget(self, memo,
                                                   budget_of_2500):
        mcf = get_profile("mcf")
        mcf.trace(1_000, seed=1)
        big = mcf.trace(3_000, seed=1)
        assert big.addresses == _fresh("mcf", 3_000, seed=1, addr_base=0,
                                       scale=1.0).addresses
        assert list(memo.traces.values()) == [big]
        assert memo.accesses == 3_000
        assert mcf.trace(3_000, seed=1) is big

    def test_no_experiment_mutates_a_shared_trace(self, memo):
        """Every registered experiment at smoke, in one process, leaves
        each memoized trace byte-equal to a fresh synthesis."""
        for name in experiment_names():
            experiment = get_experiment(name)
            experiment.format(experiment.run(experiment.config("smoke")))
        assert memo.traces
        for key, trace in memo.traces.items():
            profile, length, seed, addr_base, scale = key
            fresh = profile.generator(seed=seed, addr_base=addr_base,
                                      scale=scale).generate(length)
            assert trace.addresses == fresh.addresses, key
            assert trace.gaps == fresh.gaps, key
            assert trace.next_use == fresh.next_use, key
            assert trace.name == fresh.name, key
