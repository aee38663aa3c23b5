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

from . import core, errors, fft, oracle, pipeline, transpose
from .core import *
from .errors import *
from .fft import *
from .oracle import *
from .pipeline import *
from .transpose import *

__version__ = "0.1.0"

# each module's __all__ is the one list of the public names it defines
__all__ = [
    name
    for module in (core, errors, fft, oracle, pipeline, transpose)
    for name in module.__all__
] + ["__version__"]
