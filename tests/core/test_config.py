"""GPU join configuration validation and derivation."""

import pytest

from repro.core.config import GpuJoinConfig, default_config, fig5_config
from repro.errors import InvalidConfigError
from repro.gpusim.spec import GpuSpec


def test_default_is_papers_standard_configuration():
    cfg = default_config()
    assert cfg.total_radix_bits == 15
    assert cfg.elements_per_block == 4096
    assert cfg.ht_slots == 2048
    assert cfg.threads_per_block_partition == 1024
    assert cfg.threads_per_block_join == 512


def test_default_fits_gtx1080_shared_memory():
    default_config().validate_against(GpuSpec(), tuple_bytes=8)


def test_oversized_block_rejected():
    cfg = GpuJoinConfig(elements_per_block=1 << 16)
    with pytest.raises(InvalidConfigError):
        cfg.validate_against(GpuSpec(), tuple_bytes=8)


def test_bits_per_pass_splits_at_eight():
    assert default_config().bits_per_pass_for(128_000_000) == [8, 7]


def test_derived_bits_track_input_size():
    cfg = GpuJoinConfig(total_radix_bits=None)
    assert cfg.radix_bits_for(4096) == 1
    bits = cfg.radix_bits_for(1 << 24)
    assert (1 << 24) >> bits <= cfg.elements_per_block


def test_invalid_values_rejected():
    with pytest.raises(InvalidConfigError):
        GpuJoinConfig(probe_kernel="sort-merge")
    with pytest.raises(InvalidConfigError):
        GpuJoinConfig(ht_slots=1000)  # not a power of two
    with pytest.raises(InvalidConfigError):
        GpuJoinConfig(total_radix_bits=0)
    with pytest.raises(InvalidConfigError):
        GpuJoinConfig(elements_per_block=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("threads_per_block_join", 0),
        ("threads_per_block_join", -512),
        ("threads_per_block_join", True),
        ("ht_slots", True),
        ("total_radix_bits", 1.5),
        ("total_radix_bits", True),
        ("elements_per_block", 1.5),
        ("bucket_capacity", 0.5),
        ("output_buffer_bytes", 0),
        ("threads_per_block_partition", 0),
        ("max_bits_per_pass", 0),
    ],
)
def test_size_fields_must_be_ints_of_at_least_one(field, value):
    """Each of these used to pass construction, then crash an estimate
    (a ``TypeError``, a divide by zero) or bend it (``True`` taken as
    one, a float block size, a negative thread count)."""
    with pytest.raises(InvalidConfigError, match=field):
        GpuJoinConfig(**{field: value})


def test_with_updates_functionally():
    cfg = default_config()
    nlj = cfg.with_(probe_kernel="nlj")
    assert nlj.probe_kernel == "nlj"
    assert cfg.probe_kernel == "hash"  # original untouched


def test_fig5_configuration():
    cfg = fig5_config(11, "nlj")
    assert cfg.elements_per_block == 2048
    assert cfg.ht_slots == 256
    assert cfg.threads_per_block_join == 1024
    assert cfg.total_radix_bits == 11
    assert cfg.probe_kernel == "nlj"
