"""Privacy amplification for discrete-variable quantum key distribution.

Distills an r-bit final key from an n-bit partially leaked raw key with
a universal hash (identity block beside a diagonal-constant block drawn
from n-1 seed bits), evaluated as one FFT cyclic convolution instead of
a matrix product.  An exact GF(2) reference implementation of the same
hash ships alongside for verification.

>>> import numpy as np, qpa
>>> rng = np.random.default_rng(1)
>>> x = qpa.BitVector.from_bits(rng.integers(0, 2, 1024))
>>> seed = qpa.generate_seed(bytes(range(32)), 1024)
>>> key = qpa.privacy_amplify(x, seed, r=448, mode="B")
>>> key.bits == qpa.hash_direct(x, seed, 448)
True
"""

from .core import (
    ROLE_FINAL,
    ROLE_RAW,
    ROLE_SEED,
    WORD_BITS,
    BitVector,
    PaParams,
    ToeplitzSeed,
    final_key_length,
    generate_seed,
    leakage_bound,
    read_bits,
    write_bits,
)
from .errors import FormatError, ParameterError, PrecisionError
from .fft import (
    count_transposes,
    digit_transpose,
    fft2d_natural,
    fft2d_permuted,
    fft_small,
    is_supported_length,
    matrix_side,
    pointwise_multiply,
    real_pack,
    real_unpack_spectra,
    rotation_grid,
    supported_lengths,
)
from .oracle import (
    cyclic_convolve_naive,
    hash_direct,
    hash_single_bit,
)
from .pipeline import (
    MODES,
    RESIDUAL_LIMIT,
    ConvolutionOperands,
    FinalKey,
    RunStats,
    build_operands,
    precision_profile,
    privacy_amplify,
    run_mode_b_schedule,
)
from .transpose import (
    AccessCostReport,
    bench_transpose,
    default_tile,
    simulate_row_spans,
    transpose_blocked,
    transpose_naive,
)

__version__ = "0.1.0"

__all__ = [
    "WORD_BITS",
    "ROLE_RAW",
    "ROLE_SEED",
    "ROLE_FINAL",
    "BitVector",
    "PaParams",
    "ToeplitzSeed",
    "leakage_bound",
    "final_key_length",
    "generate_seed",
    "read_bits",
    "write_bits",
    "FormatError",
    "ParameterError",
    "PrecisionError",
    "hash_direct",
    "hash_single_bit",
    "cyclic_convolve_naive",
    "supported_lengths",
    "is_supported_length",
    "matrix_side",
    "rotation_grid",
    "fft_small",
    "fft2d_natural",
    "fft2d_permuted",
    "digit_transpose",
    "real_pack",
    "real_unpack_spectra",
    "pointwise_multiply",
    "count_transposes",
    "AccessCostReport",
    "default_tile",
    "transpose_naive",
    "transpose_blocked",
    "simulate_row_spans",
    "bench_transpose",
    "MODES",
    "RESIDUAL_LIMIT",
    "RunStats",
    "ConvolutionOperands",
    "FinalKey",
    "build_operands",
    "run_mode_b_schedule",
    "privacy_amplify",
    "precision_profile",
    "__version__",
]
