"""CPU-GPU co-processing strategy (§IV-B)."""

import numpy as np
import pytest

from repro.core import CoProcessingJoin, GpuJoinConfig
from repro.core import coprocessing
from repro.data import (
    Distribution,
    JoinSpec,
    RelationSpec,
    generate_join,
    naive_join_pairs,
    unique_pair,
    zipf_pair,
)
from repro.data.stats import expected_partition_sizes
from repro.errors import InvalidConfigError

CFG = GpuJoinConfig(total_radix_bits=4)


def test_functional_run_equals_oracle():
    build, probe = generate_join(unique_pair(1 << 13), seed=1)
    result = CoProcessingJoin(config=CFG).run(
        build, probe, materialize=True, chunk_tuples=2048
    )
    assert np.array_equal(result.pairs(), naive_join_pairs(build, probe))


def test_functional_run_with_duplicates():
    spec = JoinSpec(
        build=RelationSpec(n=6000, distinct=700, distribution=Distribution.UNIFORM),
        probe=RelationSpec(n=9000, distinct=700, distribution=Distribution.UNIFORM),
    )
    build, probe = generate_join(spec, seed=2)
    result = CoProcessingJoin(config=CFG).run(
        build, probe, materialize=True, chunk_tuples=1500
    )
    assert np.array_equal(result.pairs(), naive_join_pairs(build, probe))


def test_functional_run_skewed():
    spec = zipf_pair(12_000, 0.8, skew_side="both")
    build, probe = generate_join(spec, seed=3)
    result = CoProcessingJoin(config=CFG).run(
        build, probe, materialize=True, chunk_tuples=3000
    )
    assert np.array_equal(result.pairs(), naive_join_pairs(build, probe))


def test_throughput_insensitive_to_relation_size():
    """Fig 12's headline: co-processing stays flat as inputs grow."""
    coproc = CoProcessingJoin()
    values = [
        coproc.estimate(unique_pair(n * 1_000_000)).throughput_billion
        for n in (256, 512, 1024, 2048)
    ]
    assert max(values) / min(values) < 1.25


def test_thread_scaling_shape():
    """Fig 13: rapid rise, plateau around 16, small drop past ~26."""
    coproc = CoProcessingJoin()
    spec = unique_pair(512_000_000)
    by_threads = {
        t: coproc.estimate(spec, threads=t).throughput for t in (2, 6, 16, 26, 46)
    }
    assert by_threads[2] < by_threads[6] < by_threads[16]
    assert by_threads[16] == pytest.approx(by_threads[26], rel=0.1)
    assert by_threads[46] < by_threads[26]
    assert by_threads[46] > 0.8 * by_threads[26]  # a *small* drop


def test_coprocessing_with_6_threads_beats_full_cpu():
    """§V-D: 'using our coprocessing join with a single GPU and 6 cores,
    we can match the performance of a CPU-based join that uses nearly
    10x more CPU cores.'"""
    from repro.cpu import ProJoin

    spec = unique_pair(512_000_000)
    coproc = CoProcessingJoin().estimate(spec, threads=6).throughput
    best_cpu = ProJoin().estimate(spec, threads=46).throughput
    assert coproc > best_cpu


def test_first_working_set_is_largest_fraction():
    coproc = CoProcessingJoin()
    metrics = coproc.estimate(unique_pair(2_048_000_000))
    first = metrics.notes["first_ws_fraction"]
    assert first == pytest.approx(5 / 16, abs=0.01)  # §V-C: 5 of 16


def test_staging_beats_direct():
    spec = unique_pair(1_024_000_000)
    staged = CoProcessingJoin(staging=True).estimate(spec)
    direct = CoProcessingJoin(staging=False).estimate(spec)
    assert staged.throughput > direct.throughput


def test_materialization_penalty_small_for_uniform():
    coproc = CoProcessingJoin()
    spec = unique_pair(512_000_000)
    agg = coproc.estimate(spec)
    mat = coproc.estimate(spec, materialize=True)
    assert agg.seconds <= mat.seconds < 1.2 * agg.seconds


def test_identical_skew_explodes_output_and_collapses():
    coproc = CoProcessingJoin()
    uniform = coproc.estimate(zipf_pair(512_000_000, 0.0, skew_side="both"))
    skewed = coproc.estimate(zipf_pair(512_000_000, 1.0, skew_side="both"))
    assert skewed.throughput < 0.05 * uniform.throughput


def test_single_sided_skew_hidden_by_pcie():
    """Fig 18: the interconnect is slower than the GPU work, so one-sided
    skew costs (almost) nothing out-of-GPU."""
    coproc = CoProcessingJoin()
    uniform = coproc.estimate(zipf_pair(512_000_000, 0.0, skew_side="probe"))
    skewed = coproc.estimate(zipf_pair(512_000_000, 1.0, skew_side="probe"))
    assert skewed.throughput > 0.9 * uniform.throughput


@pytest.mark.parametrize(
    "argument, value",
    [
        ("cpu_bits", 1.5),
        ("cpu_bits", True),
        ("device_budget", 1.5e9),
        ("device_budget", float("nan")),
        ("device_budget", float("inf")),
        ("device_budget", True),
        ("chunk_tuples", 0),
        ("chunk_tuples", -5),
        ("chunk_tuples", 1.5e7),
    ],
)
def test_bad_arguments_are_refused(argument, value):
    """Each of these used to crash an estimate (a raw ``TypeError``, a
    ``ZeroDivisionError``) or change its meaning (``True`` taken as 1,
    a NaN or infinite grant as the whole device, a negative chunk as
    no probe chunks at all)."""
    spec = unique_pair(512_000_000)
    with pytest.raises(InvalidConfigError, match=argument):
        if argument == "chunk_tuples":
            CoProcessingJoin().estimate(spec, chunk_tuples=value)
        else:
            CoProcessingJoin(**{argument: value}).estimate(spec)


def test_plan_covers_all_partitions():
    coproc = CoProcessingJoin(config=CFG)
    sizes = np.full(16, 1000.0)
    plan = coproc.plan(sizes, 8, probe_n=100_000)
    covered = sorted(p for ws in plan.working_sets for p in ws.partition_ids)
    assert covered == list(range(16))


# ---------------------------------------------------------------------------
# Working-set column selection
# ---------------------------------------------------------------------------
GIB = 1 << 30
#: Grants: the whole device, the serving benchmark's co-processing
#: grant, and the 32 MiB working-set floor, which splits host partitions.
GRANTS = (None, int(1.25 * GIB), GIB)


def _gathered(sizes, weights):
    """The full-length gather-and-mask the column selection replaced."""
    n, fanout = sizes.shape[0], weights.shape[0]
    factor = weights[np.arange(n) & (fanout - 1)]
    return (sizes * factor)[factor > 0]


def _final_bits(coproc, spec):
    """Radix bits of the final co-partitions ``prepare`` prices."""
    gpu_bits = coproc.config.radix_bits_for(spec.build.n // (1 << coproc.cpu_bits))
    return coproc.cpu_bits + max(gpu_bits, 1)


def _working_set_inputs(coproc, spec):
    """(match share, build columns, probe columns) of every working set
    ``prepare`` plans for ``spec``, with the columns as bytes of the
    full-length gather."""
    cpu_bits = coproc.cpu_bits
    plan = coproc.plan(
        expected_partition_sizes(spec.build, cpu_bits),
        spec.build.tuple_bytes,
        spec.probe.n,
    )
    final_bits = _final_bits(coproc, spec)
    build, probe = (
        expected_partition_sizes(side, final_bits) for side in (spec.build, spec.probe)
    )
    return [
        (
            share,
            _gathered(build, weights).tobytes(),
            _gathered(probe, weights).tobytes(),
        )
        for share, weights in zip(plan.build_fractions, plan.ws_weights)
    ]


def _recorded_columns(monkeypatch, coproc, spec):
    """Prepare ``spec`` and return every (sizes, weights, selected)
    triple ``prepare`` passed through :func:`working_set_columns`."""
    calls = []
    select = coprocessing.working_set_columns

    def record(sizes, weights):
        selected = select(sizes, weights)
        calls.append((sizes, weights, selected))
        return selected

    monkeypatch.setattr(coprocessing, "working_set_columns", record)
    coproc.prepare(spec)
    # One build and one probe selection per distinct working set: sets
    # with the same match share and columns share one evaluator.
    assert len(calls) == 2 * len(set(_working_set_inputs(coproc, spec)))
    return calls


def _assert_full_gathers(coproc, spec, calls):
    """Each recorded selection stands for the full-length gather of its
    side's final histogram.  A uniform join is priced on one host-fanout
    row of that histogram, so its selection tiled ``2**(final_bits -
    cpu_bits)`` times is the gather; a skewed join selects from the full
    histogram itself.  ``prepare`` selects build, then probe columns."""
    final_bits = _final_bits(coproc, spec)
    sides = (spec.build, spec.probe)
    skewed = any(side.distribution is Distribution.ZIPF for side in sides)
    repeat = 1 if skewed else 1 << (final_bits - coproc.cpu_bits)
    for index, (sizes, weights, selected) in enumerate(calls):
        full = expected_partition_sizes(sides[index % 2], final_bits)
        if skewed:
            assert sizes.tobytes() == full.tobytes()
        else:
            assert sizes.shape == (1 << coproc.cpu_bits,)
        gathered = _gathered(full, weights)
        assert np.tile(selected, repeat).tobytes() == gathered.tobytes()


@pytest.mark.parametrize("grant", GRANTS, ids=("whole", "1.25GiB", "split"))
@pytest.mark.parametrize("cpu_bits", (1, 4, 6))
@pytest.mark.parametrize(
    "spec",
    (
        unique_pair(512_000_000, 64_000_000),
        zipf_pair(512_000_000, 0.5, probe_n=64_000_000),
        zipf_pair(512_000_000, 1.0, probe_n=64_000_000),
    ),
    ids=("unique", "zipf0.5", "zipf1.0"),
)
def test_working_set_columns_equal_the_full_gather(monkeypatch, spec, cpu_bits, grant):
    """Slicing a working set's host-partition columns yields the bytes
    of the full-length gather, product and mask, for the build and the
    probe arrays of every working set (a small radix config keeps the
    reference gather cheap)."""
    coproc = CoProcessingJoin(
        config=GpuJoinConfig(total_radix_bits=8),
        cpu_bits=cpu_bits,
        device_budget=grant,
    )
    calls = _recorded_columns(monkeypatch, coproc, spec)
    _assert_full_gathers(coproc, spec, calls)
    if grant == GIB:
        # The floor grant really splits a host partition across sets.
        assert any(((w > 0) & (w < 1)).any() for _, w, _ in calls)


def test_working_set_columns_at_paper_scale(monkeypatch):
    """The same identity on the default config's 2^19 final
    co-partitions, one host partition per working set: each selection
    is one value, and tiled 2^15 times it is the 2^15-element gather."""
    coproc = CoProcessingJoin(device_budget=GRANTS[1])
    spec = unique_pair(512_000_000)
    calls = _recorded_columns(monkeypatch, coproc, spec)
    assert _final_bits(coproc, spec) == 19
    for sizes, weights, selected in calls:
        assert np.count_nonzero(weights) == 1
        assert selected.shape == (1,)
    _assert_full_gathers(coproc, spec, calls)


def test_both_selection_paths_are_exercised(monkeypatch):
    """Packing usually keeps a working set's host partitions contiguous
    (the basic slice), but Zipf sizes over 64 host partitions also pack
    scattered ones (the gather); both equal the full-length gather."""
    paths = set()
    for cpu_bits in (4, 6):
        coproc = CoProcessingJoin(
            config=GpuJoinConfig(total_radix_bits=8),
            cpu_bits=cpu_bits,
            device_budget=GRANTS[1],
        )
        spec = zipf_pair(512_000_000, 1.0, probe_n=64_000_000)
        with monkeypatch.context() as patch:
            calls = _recorded_columns(patch, coproc, spec)
        for sizes, weights, selected in calls:
            assert selected.tobytes() == _gathered(sizes, weights).tobytes()
            live = np.flatnonzero(weights)
            contiguous = live[-1] - live[0] + 1 == live.size
            paths.add("slice" if contiguous else "gather")
    assert paths == {"slice", "gather"}


def _recorded_evaluators(monkeypatch, coproc):
    """Probe columns of every join evaluator ``coproc`` builds."""
    built = []
    build_evaluator = coproc._resident._join_cost_evaluator

    def record(build_sizes, probe_sizes, *args, **kwargs):
        built.append(probe_sizes.tobytes())
        return build_evaluator(build_sizes, probe_sizes, *args, **kwargs)

    monkeypatch.setattr(coproc._resident, "_join_cost_evaluator", record)
    return built


def test_duplicate_working_sets_share_one_evaluator(monkeypatch):
    """Every single-partition working set of a uniform relation has the
    same columns and match share, so they share one evaluator.  A skewed
    probe side builds one per distinct probe column set: under the 1 GiB
    grant each of the 16 host partitions is split 8 ways, and the 8
    working sets holding one partition share its probe columns."""
    coproc = CoProcessingJoin(device_budget=GRANTS[1])
    built = _recorded_evaluators(monkeypatch, coproc)
    plan = coproc.prepare(unique_pair(512_000_000))
    assert plan.notes["working_sets"] == 16
    assert len(built) == 1

    coproc = CoProcessingJoin(device_budget=GRANTS[2])
    built = _recorded_evaluators(monkeypatch, coproc)
    spec = zipf_pair(512_000_000, 1.0, skew_side="probe")
    plan = coproc.prepare(spec)
    probe_sets = {probe for _, _, probe in _working_set_inputs(coproc, spec)}
    assert (plan.notes["working_sets"], len(probe_sets)) == (128, 16)
    assert sorted(built) == sorted(probe_sets)
