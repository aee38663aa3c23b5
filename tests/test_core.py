"""Bit containers, parameter arithmetic, seed derivation, QPA1 files."""

import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_bitvector, random_seed
from qpa import (
    ROLE_FINAL,
    ROLE_RAW,
    ROLE_SEED,
    BitVector,
    FormatError,
    PaParams,
    ParameterError,
    ToeplitzSeed,
    final_key_length,
    generate_seed,
    leakage_bound,
    read_bits,
    write_bits,
)

# --------------------------------------------------------------------------
# BitVector


def test_bits_round_trip():
    rng = np.random.default_rng(1)
    for length in (0, 1, 7, 8, 9, 64, 1000):
        bits = rng.integers(0, 2, length, dtype=np.uint8)
        vec = BitVector.from_bits(bits)
        assert vec.length == length
        assert len(vec) == length
        assert np.array_equal(vec.to_bits(), bits)


def test_packing_is_lsb_first():
    vec = BitVector.from_bits([1, 0, 1, 1, 0, 1, 0, 1])
    assert vec.packed[0] == 0xAD
    assert vec.to_bytes() == b"\xad"


def test_bytes_round_trip():
    vec = BitVector.from_bytes(b"\xad\x03", 12)
    assert vec.to_bytes() == b"\xad\x03"
    assert np.array_equal(
        vec.to_bits(), [1, 0, 1, 1, 0, 1, 0, 1, 1, 1, 0, 0]
    )


def test_nonzero_pad_bits_rejected():
    with pytest.raises(FormatError):
        BitVector.from_bytes(b"\xff", 5)
    BitVector.from_bytes(b"\x1f", 5)  # the 5 low bits alone are fine


def test_payload_size_must_match_length():
    with pytest.raises(FormatError):
        BitVector.from_bytes(b"\x00\x00", 5)
    with pytest.raises(FormatError):
        BitVector.from_bytes(b"", 1)
    with pytest.raises(ParameterError):
        BitVector.from_bytes(b"", -1)


def test_packed_is_read_only():
    vec = BitVector.zeros(16)
    with pytest.raises(ValueError):
        vec.packed[0] = 1


def test_zeros():
    vec = BitVector.zeros(13)
    assert vec.length == 13
    assert not vec.to_bits().any()


def test_bit_indexing():
    vec = BitVector.from_bits([0, 1, 1, 0, 1])
    assert [vec.bit(i) for i in range(5)] == [0, 1, 1, 0, 1]
    assert vec[1] == 1
    assert vec[-1] == 1
    with pytest.raises(ParameterError):
        vec.bit(5)
    with pytest.raises(ParameterError):
        vec.bit(-1)


def test_slicing():
    rng = np.random.default_rng(2)
    vec = random_bitvector(rng, 50)
    assert vec[10:30] == BitVector.from_bits(vec.to_bits()[10:30])
    assert vec[:0].length == 0
    with pytest.raises(ParameterError):
        vec[::2]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bit_range_matches_to_bits(data):
    length = data.draw(st.integers(1, 200))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vec = random_bitvector(rng, length)
    start = data.draw(st.integers(0, length))
    stop = data.draw(st.integers(start, length))
    assert np.array_equal(vec.bit_range(start, stop), vec.to_bits()[start:stop])


def test_bit_range_bounds():
    vec = BitVector.zeros(8)
    with pytest.raises(ParameterError):
        vec.bit_range(3, 2)
    with pytest.raises(ParameterError):
        vec.bit_range(0, 9)


def test_xor():
    rng = np.random.default_rng(3)
    a = random_bitvector(rng, 77)
    b = random_bitvector(rng, 77)
    assert np.array_equal((a ^ b).to_bits(), a.to_bits() ^ b.to_bits())
    assert a ^ BitVector.zeros(77) == a
    assert a ^ a == BitVector.zeros(77)
    with pytest.raises(ParameterError):
        a ^ random_bitvector(rng, 76)


def test_equality_and_hash():
    a = BitVector.from_bits([1, 0, 1])
    b = BitVector.from_bits([1, 0, 1])
    assert a == b and hash(a) == hash(b)
    assert a != BitVector.from_bits([1, 0, 1, 0])
    assert a != BitVector.from_bits([1, 1, 1])
    assert (a == object()) is False


# --------------------------------------------------------------------------
# ToeplitzSeed


def test_seed_serves_one_more_bit_than_it_holds():
    seed = ToeplitzSeed(BitVector.from_bits([1, 0, 1, 1, 0, 1, 0]))
    assert seed.n == 8
    assert seed == ToeplitzSeed(BitVector.from_bits([1, 0, 1, 1, 0, 1, 0]))


def test_seed_validation():
    with pytest.raises(ParameterError):
        ToeplitzSeed([1, 0, 1])
    with pytest.raises(ParameterError):
        ToeplitzSeed(BitVector.zeros(0))


# --------------------------------------------------------------------------
# security arithmetic


def test_leakage_bound_frozen_values():
    assert leakage_bound(30) == pytest.approx(1.3436144598656924e-09, rel=1e-15)
    assert leakage_bound(0) == pytest.approx(1.4426950408889634, rel=1e-15)
    assert leakage_bound(30) == 2.0**-30 / math.log(2.0)


def test_leakage_bound_halves_per_margin_bit():
    for s in range(0, 200, 13):
        assert leakage_bound(s + 1) * 2.0 == leakage_bound(s)


def test_leakage_bound_underflows_to_zero():
    assert leakage_bound(5000) == 0.0


def test_leakage_bound_validation():
    with pytest.raises(ParameterError):
        leakage_bound(-1)
    with pytest.raises(ParameterError):
        leakage_bound(1.5)


def test_final_key_length():
    assert final_key_length(1048576, 524288, 64) == 524224
    assert final_key_length(64, 10, 30) == 24
    with pytest.raises(ParameterError):
        final_key_length(64, 32, 32)
    with pytest.raises(ParameterError):
        final_key_length(64, -1, 3)
    # margin at least 1, as PaParams and privacy_amplify require
    assert final_key_length(64, 10, 1) == 53
    for bad_s in (0, -1):
        with pytest.raises(ParameterError):
            final_key_length(64, 10, bad_s)


def test_pa_params_round_trip():
    p = PaParams.from_security(4096, t=1000, s=96)
    assert (p.n, p.r, p.t, p.s) == (4096, 3000, 1000, 96)
    q = PaParams.from_final_length(4096, r=3000, t=1000)
    assert p == q
    assert p.leakage == leakage_bound(96)


def test_pa_params_validation():
    with pytest.raises(ParameterError):
        PaParams(4096, 3000, 1000, 97)  # s != n - t - r
    with pytest.raises(ParameterError):
        PaParams.from_final_length(4095, 100, 10)  # not a transform length
    with pytest.raises(ParameterError):
        PaParams.from_final_length(4096, 4096, 0)  # r must stay below n
    with pytest.raises(ParameterError):
        PaParams.from_final_length(4096, 4095, 1)  # margin would be zero
    # n - t - r = 1 is the smallest legal margin
    PaParams.from_final_length(4096, 4095, 0)


def test_pa_params_immutable():
    p = PaParams.from_security(4096, t=0, s=96)
    with pytest.raises(AttributeError):
        p.r = 1


# --------------------------------------------------------------------------
# seed derivation


def test_generate_seed_frozen_stream():
    seed = generate_seed(bytes(range(32)), 64)
    assert seed.n == 64
    assert seed.bits.to_bytes().hex() == "a9d6e500293a883d"


def test_generate_seed_matches_counter_mode_construction():
    secret = b"\x07" * 32
    n = 600  # needs three hash blocks
    nbytes = (n - 1 + 7) // 8
    stream = b"".join(
        hashlib.sha256(secret + i.to_bytes(8, "little")).digest() for i in range(3)
    )[:nbytes]
    expected = np.unpackbits(
        np.frombuffer(stream, dtype=np.uint8), count=n - 1, bitorder="little"
    )
    assert np.array_equal(generate_seed(secret, n).bits.to_bits(), expected)


def test_generate_seed_is_deterministic_and_prefix_stable():
    secret = b"\xa5" * 32
    a = generate_seed(secret, 1024)
    assert a == generate_seed(secret, 1024)
    b = generate_seed(secret, 100)
    assert np.array_equal(a.bits.to_bits()[:99], b.bits.to_bits())
    assert generate_seed(b"\xa6" * 32, 1024) != a


def test_generate_seed_validation():
    with pytest.raises(ParameterError):
        generate_seed(b"short", 64)
    with pytest.raises(ParameterError):
        generate_seed("not bytes", 64)
    with pytest.raises(ParameterError):
        generate_seed(bytes(32), 1)
    assert generate_seed(bytes(32), 2).bits.length == 1


# --------------------------------------------------------------------------
# QPA1 files


def test_record_layout_frozen():
    buf = io.BytesIO()
    write_bits(BitVector.from_bits([1, 0, 1, 1, 0, 1, 0, 1, 1, 1, 0, 0]), buf, ROLE_SEED)
    assert buf.getvalue().hex() == "51504131010001000c00000000000000ad03"


def test_path_round_trip_all_roles(tmp_path):
    rng = np.random.default_rng(4)
    for role in (ROLE_RAW, ROLE_SEED, ROLE_FINAL):
        vec = random_bitvector(rng, 123)
        path = tmp_path / ("role%d.qpa1" % role)
        write_bits(vec, path, role)
        assert read_bits(path, expected_length=123, expected_role=role) == vec


def test_stream_carries_multiple_records():
    rng = np.random.default_rng(5)
    a, b = random_bitvector(rng, 30), random_bitvector(rng, 9)
    buf = io.BytesIO()
    write_bits(a, buf, ROLE_RAW)
    write_bits(b, buf, ROLE_FINAL)
    buf.seek(0)
    assert read_bits(buf, expected_role=ROLE_RAW) == a
    assert read_bits(buf, expected_role=ROLE_FINAL) == b


def _record(vec_bits, role=ROLE_RAW):
    buf = io.BytesIO()
    write_bits(BitVector.from_bits(vec_bits), buf, role)
    return bytearray(buf.getvalue())


def test_read_rejects_corruption(tmp_path):
    good = _record([1, 0, 1, 1])

    def check(raw):
        with pytest.raises(FormatError):
            read_bits(io.BytesIO(bytes(raw)))

    check(good[:10])  # truncated header
    check(good[:-1])  # truncated payload
    bad = bytearray(good)
    bad[0] = ord("X")
    check(bad)  # magic
    bad = bytearray(good)
    bad[4] = 9
    check(bad)  # version
    bad = bytearray(good)
    bad[6] = 7
    check(bad)  # role byte
    bad = bytearray(good)
    bad[7] = 1
    check(bad)  # reserved byte
    bad = bytearray(good)
    bad[-1] |= 0xF0
    check(bad)  # pad bits

    path = tmp_path / "trailing.qpa1"
    path.write_bytes(bytes(good) + b"junk")
    with pytest.raises(FormatError):
        read_bits(path)


def test_stream_may_have_trailing_bytes():
    data = bytes(_record([1, 1, 0])) + b"more"
    vec = read_bits(io.BytesIO(data))
    assert vec.length == 3


def test_read_expectation_mismatches():
    rec = bytes(_record([1, 0, 1], ROLE_SEED))
    with pytest.raises(FormatError):
        read_bits(io.BytesIO(rec), expected_role=ROLE_RAW)
    with pytest.raises(FormatError):
        read_bits(io.BytesIO(rec), expected_length=4)


def test_write_role_validation():
    with pytest.raises(ParameterError):
        write_bits(BitVector.zeros(4), io.BytesIO(), 9)


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=0, max_size=64), st.sampled_from([ROLE_RAW, ROLE_SEED, ROLE_FINAL]))
def test_any_payload_round_trips(data, role):
    vec = BitVector.from_bytes(data, len(data) * 8)
    buf = io.BytesIO()
    write_bits(vec, buf, role)
    buf.seek(0)
    assert read_bits(buf, expected_role=role) == vec


def test_seed_files_pair_with_generate(tmp_path):
    seed = generate_seed(b"\x11" * 32, 256)
    path = tmp_path / "seed.qpa1"
    write_bits(seed.bits, path, ROLE_SEED)
    assert ToeplitzSeed(read_bits(path, expected_role=ROLE_SEED)) == seed
