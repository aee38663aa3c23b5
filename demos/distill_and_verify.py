"""
A complete privacy-amplification session
========================================

Alice and Bob hold an identical 4096-bit raw key.  Error correction
leaked information about it, so they compress it to a shorter final key
that an eavesdropper knows essentially nothing about.  This script
walks the whole session: choose parameters, derive the shared seed,
distill, exchange QPA1 files, and verify against the exact reference
hash.
"""

import tempfile
from pathlib import Path

import numpy as np

import qpa

# --------------------------------------------------------------------
# 1. The raw key.  In a real deployment this comes out of the sifting
#    and reconciliation phases; here a seeded generator stands in.

rng = np.random.default_rng(2024)
n = 4096
raw = qpa.BitVector.from_bits(rng.integers(0, 2, n, dtype=np.uint8))
print("raw key: %d bits, first 32: %s" % (raw.length, raw.to_bits()[:32]))

# --------------------------------------------------------------------
# 2. Parameters.  Suppose reconciliation leaked at most t = 1200 bits
#    and we want a security margin of s = 96 bits.  The final key gets
#    r = n - t - s bits, and the eavesdropper's expected information
#    about it is bounded by 2**-s / ln 2.

params = qpa.PaParams.from_security(n, t=1200, s=96)
print(
    "parameters: n=%d t=%d s=%d -> r=%d final bits, leakage bound %.3e bits"
    % (params.n, params.t, params.s, params.r, params.leakage)
)

# --------------------------------------------------------------------
# 3. The seed.  Both parties expand one fresh 256-bit shared secret
#    into the n-1 seed bits with SHA-256 in counter mode, so only 32
#    bytes ever cross the authenticated channel.

master_secret = bytes(rng.integers(0, 256, 32, dtype=np.uint8))
seed = qpa.generate_seed(master_secret, n)
print("seed: %d bits derived from a %d-byte secret" % (seed.bits.length, len(master_secret)))

# --------------------------------------------------------------------
# 4. Distill.  Mode B is the production schedule (two physical
#    transposes per convolution instead of six); Mode A is the plain
#    natural-order schedule.  Their outputs are bit-identical.

stats = qpa.RunStats()
key = qpa.privacy_amplify(raw, seed, params.r, mode="B", t=params.t, stats=stats)
print(
    "distilled %d bits (mode %s, residual %.2e, %d transposes)"
    % (key.bits.length, key.mode, key.residual, stats.transposes)
)
key_a = qpa.privacy_amplify(raw, seed, params.r, mode="A")
assert key_a.bits == key.bits
print("mode A reproduces the same key bit for bit")

# --------------------------------------------------------------------
# 5. Files.  Keys travel as QPA1 records: a 16-byte header (magic,
#    version, role, bit length) followed by the LSB-first payload.

with tempfile.TemporaryDirectory() as tmp:
    final_path = Path(tmp) / "final.qpa1"
    qpa.write_bits(key.bits, final_path, qpa.ROLE_FINAL)
    print("wrote %s (%d bytes)" % (final_path.name, final_path.stat().st_size))
    back = qpa.read_bits(final_path, expected_length=params.r, expected_role=qpa.ROLE_FINAL)
    assert back == key.bits
    print("read back and matched")

# --------------------------------------------------------------------
# 6. Verify.  The FFT pipeline is floating point inside, so check it
#    against the exact GF(2) hash: the full compare at this size, plus
#    the single-bit probe on packed bytes used for very large sessions.

reference = qpa.hash_direct(raw, seed, params.r)
assert reference == key.bits
print("full compare against the exact hash: all %d bits match" % params.r)

for i in rng.integers(0, params.r, 5):
    assert qpa.hash_single_bit(raw, seed, params.r, int(i)) == key.bits.bit(int(i))
print("spot check of 5 sampled bits: all match")

print("session complete")
