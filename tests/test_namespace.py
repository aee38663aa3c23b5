"""The package namespace: each module's ``__all__`` is its one list of public names."""

import qpa
from qpa import core, errors, fft, oracle, pipeline, transpose

MODULES = (core, errors, fft, oracle, pipeline, transpose)

# every name the package exported when it listed them by hand
LISTED_BY_HAND = {
    "AccessCostReport", "BitVector", "FinalKey", "FormatError", "MODES", "PaParams",
    "ParameterError", "PrecisionError", "RESIDUAL_LIMIT", "ROLE_FINAL", "ROLE_RAW",
    "ROLE_SEED", "RunStats", "ToeplitzSeed", "bench_transpose", "build_operands",
    "count_transposes", "default_tile", "digit_transpose", "fft2d_natural",
    "fft2d_permuted", "fft_small", "final_key_length", "generate_seed", "hash_direct",
    "hash_single_bit", "is_supported_length", "leakage_bound", "matrix_side",
    "pointwise_multiply", "precision_profile", "privacy_amplify", "read_bits",
    "real_pack", "real_unpack_spectra", "rotation_grid", "run_mode_b_schedule",
    "simulate_row_spans", "supported_lengths", "transpose_blocked", "transpose_naive",
    "write_bits",
}


def test_package_exports_the_union_of_its_modules_names():
    expected = set().union(*(module.__all__ for module in MODULES)) | {"__version__"}
    assert set(qpa.__all__) == expected
    assert len(qpa.__all__) == len(expected)  # no name listed by two modules
    assert LISTED_BY_HAND <= expected
    # exported by their modules but missing from the hand-written list
    assert expected - LISTED_BY_HAND == {
        "__version__", "convolve", "check_hash_inputs", "ROLE_NAMES", "SMALL_SIZES",
        "render_bench_report",
    }


def test_every_exported_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qpa, name) is getattr(module, name), (module.__name__, name)
