"""Calibration constants for the cost model.

Every constant here is an efficiency factor or per-operation cost that
converts ideal hardware rates (from :mod:`repro.gpusim.spec`) into
achieved rates.  They were calibrated once against the paper's headline
numbers — in-GPU partitioned join ≈ 4.5 Btuples/s at 128 M tuples
(Figs 7/8), co-partition join ≈ 7 Btuples/s peak in the Fig 5
configuration and ≈ 25 Btuples/s in the Fig 6 configuration, streaming
probe ≈ 1.4 Btuples/s (Fig 11), co-processing ≈ 1.2 Btuples/s (Fig 12),
CPU radix partitioning ≈ 40 GB/s at 16 threads (§V-C) — and are **never
tuned per experiment**; all figure shapes follow from the model with this
single set of values.

GPU compute costs are expressed in *lane-operations*: one lane-op is the
work one of the 32 lanes of a warp retires in one issue slot.  The device
retires ``num_sms * clock * warp_size`` lane-ops per second (≈ 1.0e12 on
the GTX 1080).  Per-tuple lane-op counts bundle arithmetic, addressing,
shared-memory traffic and divergence bookkeeping of the corresponding
kernel inner loop.

Heterogeneous fleets are modelled by giving each device its *own*
:class:`Calibration`: the serving layer threads a per-device instance
through every estimate, plan and placement decision
(``QueryScheduler(device_calibrations=...)``).  The
:meth:`Calibration.gpu_scaled` helper derives a uniformly
faster/slower GPU from any base calibration, and
:func:`calibration_preset` resolves the named presets
(:data:`CALIBRATION_PRESETS`) the ``bench serve --device-calib`` flag
accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.frozen import cached_hash


@cached_hash
@dataclass(frozen=True)
class Calibration:
    """Tunable constants of the cost model (see module docstring).

    Every instance is validated once, at construction (``__post_init__``
    runs :meth:`validate`, also for ``dataclasses.replace`` and
    :meth:`gpu_scaled` results), so a ``Calibration`` that exists is a
    valid one and its consumers never re-check it.
    """

    # --------------------------------------------------------- GPU memory
    #: Fraction of peak device bandwidth achieved by the radix-partitioning
    #: kernel (scattered bucket writes, pool-allocation atomics, metadata).
    gpu_partition_efficiency: float = 0.55
    #: Fraction of peak device bandwidth achieved by coalesced scans in the
    #: join phase (probe-side scan, bucket-chain reads).
    gpu_scan_efficiency: float = 0.80
    #: Fraction of peak device bandwidth achieved by warp-buffered,
    #: coalesced result flushes (§III-C).
    gpu_materialize_efficiency: float = 0.70
    #: Random (non-coalesced) device accesses reach this fraction of peak
    #: bandwidth on top of sector-granularity accounting.
    gpu_random_efficiency: float = 0.65
    #: Per-partition-per-pass fixed overhead in bytes (bucket headers and
    #: metadata init); penalizes high fanout on small inputs (Fig 8 left).
    partition_metadata_bytes: float = 96.0
    #: Per-kernel-launch fixed overhead (seconds).
    kernel_launch_seconds: float = 20e-6

    # -------------------------------------------------------- GPU compute
    #: Lane-ops to scan one probe tuple (load, hash, loop bookkeeping).
    lane_ops_scan_per_tuple: float = 8.0
    #: Lane-ops for one hash-table insert (Listing 2: hash, atomicExchange,
    #: link write, contention).
    lane_ops_insert: float = 20.0
    #: Lane-ops per chain node visited while probing (§III-C).
    lane_ops_chain_step: float = 12.0
    #: Warp divergence inflates the effective chain walk: lanes finish at
    #: different depths and the warp pays the maximum.  Modelled as
    #: ``load + factor * sqrt(load)`` visited nodes at load factor `load`.
    chain_divergence_factor: float = 2.5
    #: Lane-ops to stage one build tuple into shared memory.
    lane_ops_build_copy: float = 2.0
    #: Ballot-based NLJ (Listing 1): per 32-element round, a fixed setup
    #: plus a per-differing-bit ballot/bitmask cost (per lane).
    nlj_round_base_ops: float = 12.0
    nlj_ops_per_bit: float = 12.0
    #: Lane-ops to buffer and flush one result tuple (§III-C).
    lane_ops_flush_per_match: float = 6.0
    #: Chain steps of a co-partition hash table kept in *device* memory
    #: cost this multiple of the shared-memory lane cost (served mostly by
    #: L2 at co-partition footprints — Fig 6).
    device_ht_step_penalty: float = 3.0
    #: A join block is configured for ``threads_per_block`` elements; a
    #: co-partition with fewer probe tuples leaves lanes idle.  Utilization
    #: is floored here (Fig 5/6 rising flanks, Fig 8 left end).
    min_block_utilization: float = 0.02

    # ---------------------------------------------- non-partitioned joins
    #: Dependent random device accesses per probe of the chaining table:
    #: hash-table head, key, successor check, payload ("three to four
    #: random memory accesses", §V-B).
    nonpartitioned_accesses_per_probe: float = 3.5
    #: Random device accesses per probe with the perfect hash function.
    perfect_hash_accesses_per_probe: float = 1.0
    #: Random device accesses per build insert (head exchange + link).
    nonpartitioned_accesses_per_build: float = 2.0
    #: Random-access latency model: cost per access at the reference
    #: footprint, plus an increment per footprint doubling (L2/TLB decay).
    #: Drives the non-partitioned joins' decline with size (Fig 8).
    gpu_random_base_seconds: float = 0.10e-9
    gpu_random_growth_seconds: float = 0.05e-9
    gpu_random_reference_bytes: float = 8.0e6

    # ------------------------------------------------------------------ CPU
    #: Achieved per-thread CPU radix-partition throughput (bytes of input
    #: per second) with software-managed buffers and non-temporal stores:
    #: 16 threads x 2.5 GB/s = 40 GB/s, the paper's §V-C figure.
    cpu_partition_bytes_per_thread: float = 2.5e9
    #: Memory traffic multiplier of one CPU partitioning pass (read input,
    #: NT-store output — no write-allocate).
    cpu_partition_traffic_factor: float = 2.0
    #: CPU cycles per tuple for PRO's cache-resident build+probe phase.
    cpu_pro_join_cycles_per_tuple: float = 22.0
    #: PRO's partitioning pass throughput relative to the software
    #: managed-buffer pass above (PRO performs a histogram pass first).
    cpu_pro_partition_efficiency: float = 0.62
    #: Per-pass fixed overhead of PRO (thread barriers, task queues).
    cpu_pro_sync_seconds_per_pass: float = 7e-4
    #: NPO: cache lines touched per probe / per build insert, and the
    #: cycles of its cache-resident instruction path (latch/atomic on the
    #: shared table makes it pricier than PRO's private builds).
    cpu_npo_lines_per_probe: float = 2.2
    cpu_npo_build_lines_per_tuple: float = 2.0
    cpu_npo_cycles_per_tuple: float = 25.0
    #: Per-thread achievable share of socket memory bandwidth.
    cpu_thread_bandwidth: float = 6.0e9

    # -------------------------------------------------------- PCIe / NUMA
    #: Utilization of pinned PCIe bandwidth achieved by the double-buffered
    #: streaming pipeline (event sync and stream gaps).
    pcie_stream_utilization: float = 0.95
    #: Effective QPI share available to GPU transfers sourced from the far
    #: socket while partitioning runs (coherency interference — Fig 16's
    #: "direct copy" case).
    qpi_transfer_utilization: float = 0.55
    #: Near-socket memory traffic one partitioning thread imposes (its
    #: reads are NUMA-local; roughly the NT-stored output half lands on
    #: the near socket).  With the DMA stream this saturates the near
    #: socket at ~26 threads — the knee the paper measures in Fig 13.
    numa_partition_near_bytes_per_thread: float = 1.67e9
    #: Synchronization overhead per pipeline stage hand-off (seconds).
    pipeline_sync_seconds: float = 10e-6

    # ------------------------------------------------------------ baselines
    #: DBMS-X: GPU-resident efficiency relative to our partitioned join
    #: (paper: we are 1.5-2x faster), its out-of-GPU fallback throughput
    #: (paper: ~10x slower), and its residency ceiling (32 M tuples).
    dbmsx_resident_efficiency: float = 0.55
    dbmsx_oog_tuples_per_second: float = 0.12e9
    dbmsx_max_resident_tuples: int = 32_000_000
    #: CoGaDB: operator-at-a-time efficiency and its size ceiling.
    cogadb_resident_efficiency: float = 0.30
    cogadb_max_tuples: int = 128_000_000

    # ------------------------------------------------------------ derived
    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Sanity-check the constants (run once, at construction).

        Every ``*_efficiency`` / ``*_utilization`` factor must lie in
        ``(0, 1]`` (they multiply ideal hardware rates) and every other
        numeric constant must be positive.  Raises :class:`ValueError`
        naming the offending field — per-device calibrations arrive
        from CLI flags (``bench serve --device-calib``), so a malformed
        one must fail at construction, not as a nonsense estimate.
        """
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name.endswith(("_efficiency", "_utilization")):
                if not 0.0 < value <= 1.0:
                    raise ValueError(
                        f"calibration field {spec.name!r} must be in "
                        f"(0, 1], got {value!r}"
                    )
            elif isinstance(value, (int, float)) and value <= 0:
                raise ValueError(
                    f"calibration field {spec.name!r} must be positive, "
                    f"got {value!r}"
                )

    def gpu_scaled(self, speed: float) -> "Calibration":
        """A calibration for a uniformly ``speed``× faster (or, with
        ``speed < 1``, slower) GPU.

        This is a *synthetic* device family for heterogeneous-fleet
        modelling, not a physically measured card: GPU-side bandwidth
        efficiencies are scaled toward the ideal (capped at 1.0),
        per-tuple lane-op counts and random-access/launch/sync latencies
        are divided by ``speed``, and CPU/PCIe/NUMA constants are left
        untouched — the host, interconnect and baseline columns are
        shared by every device of a fleet.  For ``speed >= 1`` every
        GPU-side cost term is monotonically non-increasing, so a
        faster calibration never yields a slower estimate.
        """
        if speed <= 0:
            raise ValueError(f"speed factor must be positive, got {speed!r}")
        scaled_efficiencies = {
            name: min(1.0, getattr(self, name) * speed)
            for name in (
                "gpu_partition_efficiency",
                "gpu_scan_efficiency",
                "gpu_materialize_efficiency",
                "gpu_random_efficiency",
            )
        }
        scaled_down = {
            name: getattr(self, name) / speed
            for name in (
                "kernel_launch_seconds",
                "lane_ops_scan_per_tuple",
                "lane_ops_insert",
                "lane_ops_chain_step",
                "lane_ops_build_copy",
                "nlj_round_base_ops",
                "nlj_ops_per_bit",
                "lane_ops_flush_per_match",
                "gpu_random_base_seconds",
                "gpu_random_growth_seconds",
            )
        }
        return replace(self, **scaled_efficiencies, **scaled_down)


DEFAULT_CALIBRATION = Calibration()

#: Named calibrations the CLI accepts (``bench serve --device-calib``).
#: ``fast``/``slow`` are synthetic ±2× GPU-side variants of the paper
#: calibration (see :meth:`Calibration.gpu_scaled`); the map is ordered
#: fastest-first for readable ``--help`` output.
CALIBRATION_PRESETS: dict[str, Calibration] = {
    "fast": DEFAULT_CALIBRATION.gpu_scaled(2.0),
    "default": DEFAULT_CALIBRATION,
    "slow": DEFAULT_CALIBRATION.gpu_scaled(0.5),
}


def calibration_preset(name: str) -> Calibration:
    """Resolve a named calibration preset.

    Raises :class:`ValueError` listing the registered names on a miss —
    the CLI surfaces this verbatim, so the message must name the
    choices.
    """
    try:
        return CALIBRATION_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(CALIBRATION_PRESETS))
        raise ValueError(
            f"unknown calibration preset {name!r}; registered presets: "
            f"{known}"
        ) from None
