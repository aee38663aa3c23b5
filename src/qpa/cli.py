"""Command-line front end.

Subcommands
-----------
run       distill a final key from a raw-key file
verify    recompute a final key with the direct hash and compare
bench     time the transpose strategies, both pipeline modes and the
          direct hash
gen-seed  derive a seed file from a 256-bit master secret
params    print the r / security-margin trade-off table for one n

Exit codes: 0 success, 2 file-format error, 3 parameter error,
4 precision failure, 5 verification mismatch.
"""

import argparse
import datetime
import json
import sys

import numpy as np

from .core import (
    ROLE_FINAL,
    ROLE_RAW,
    ROLE_SEED,
    BitVector,
    PaParams,
    ToeplitzSeed,
    generate_seed,
    leakage_bound,
    read_bits,
    write_bits,
)
from .errors import FormatError, ParameterError, PrecisionError
from .fft import is_supported_length, matrix_side
from .oracle import hash_direct, hash_single_bit
from .pipeline import MODES, RESIDUAL_LIMIT, RunStats, privacy_amplify
from .transpose import bench_transpose, render_bench_report

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_PARAMETER = 3
EXIT_PRECISION = 4
EXIT_MISMATCH = 5

__all__ = ["main", "build_parser"]


def _parse_secret(text):
    try:
        secret = bytes.fromhex(text)
    except ValueError:
        raise ParameterError("master secret must be hex") from None
    if len(secret) != 32:
        raise ParameterError(
            "master secret must be 64 hex digits (32 bytes), got %d bytes" % len(secret)
        )
    return secret


def _load_seed(args, n):
    if args.seed_file:
        return ToeplitzSeed(
            read_bits(args.seed_file, expected_length=n - 1, expected_role=ROLE_SEED)
        )
    return generate_seed(_parse_secret(args.master_secret), n)


def _resolve_r(args, n):
    given_r = args.final_bits is not None
    given_t = args.leaked_bits is not None
    given_s = args.security_bits is not None
    if given_r and (given_t or given_s):
        raise ParameterError(
            "--final-bits excludes --leaked-bits/--security-bits; pick one way"
        )
    if not given_r and not (given_t and given_s):
        raise ParameterError(
            "give either --final-bits or both --leaked-bits and --security-bits"
        )
    if given_r:
        return args.final_bits, None, None
    params = PaParams.from_security(n, args.leaked_bits, args.security_bits)
    return params.r, params.t, params.s


def _append_record(path, record):
    """Append ``record`` to ``path`` as one line of JSON."""
    with open(path, "a", encoding="ascii") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _environment():
    """The numpy and Python versions and the core count, for a record."""
    # imported here, not with the module: a call that writes no record,
    # and any program that imports the CLI, does not load them
    import os
    import platform

    return {
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def cmd_run(args):
    x = read_bits(args.input, expected_role=ROLE_RAW)
    n = x.length
    seed = _load_seed(args, n)
    r, t, s = _resolve_r(args, n)
    # the manifest record is the only reader of the stage timings
    stats = RunStats() if args.manifest else None
    key = privacy_amplify(
        x, seed, r, mode=args.mode, t=t, s_min=s if s is not None else 1,
        stats=stats,
    )
    write_bits(key.bits, args.output, ROLE_FINAL)
    if args.manifest:
        import math  # imported here, as `_environment` imports its modules

        record = {
            "time": datetime.datetime.now().isoformat(timespec="seconds"),
            "input": args.input,
            "output": args.output,
            "n": n,
            "r": r,
            "t": t,
            "s": s,
            "mode": key.mode,
            "residual": key.residual,
            # an exact result reads as float resolution, so JSON stays finite
            "headroom": math.log10(
                RESIDUAL_LIMIT / max(key.residual, sys.float_info.epsilon)
            ),
            **_environment(),
            "transposes": stats.transposes,
            "seconds_total": stats.total_seconds(),
        }
        for name, seconds in stats.timings.items():
            record["seconds_%s" % name] = seconds
        _append_record(args.manifest, record)
    print(
        "distilled %d bits from %d (mode %s, residual %.3e) -> %s"
        % (r, n, key.mode, key.residual, args.output)
    )
    return EXIT_OK


def cmd_verify(args):
    if args.samples < 1:
        raise ParameterError("--samples must be at least 1, got %d" % args.samples)
    x = read_bits(args.input, expected_role=ROLE_RAW)
    n = x.length
    seed = _load_seed(args, n)
    final = read_bits(args.final, expected_role=ROLE_FINAL)
    r = final.length
    if not 0 < r < n:
        raise FormatError(
            "final key holds %d bits, expected between 1 and %d" % (r, n - 1)
        )
    if n <= args.full_compare_limit:
        expected = hash_direct(x, seed, r)
        if expected != final:
            diff = np.flatnonzero(expected.to_bits() != final.to_bits())
            print("mismatch at bit %d (full compare, %d bits differ)" % (diff[0], diff.size))
            return EXIT_MISMATCH
        print("verify ok: all %d bits match the direct hash" % r)
        return EXIT_OK
    rng = np.random.default_rng()
    count = min(args.samples, r)
    rows = np.sort(rng.choice(r, size=count, replace=False))
    for i in rows:
        if hash_single_bit(x, seed, r, int(i)) != final.bit(int(i)):
            print("mismatch at bit %d (sampled %d of %d rows)" % (i, count, r))
            return EXIT_MISMATCH
    print("verify ok: %d sampled rows of %d match the direct hash" % (count, r))
    return EXIT_OK


def cmd_gen_seed(args):
    matrix_side(args.n)
    seed = generate_seed(_parse_secret(args.master_secret), args.n)
    write_bits(seed.bits, args.output, ROLE_SEED)
    print("wrote %d seed bits for n=%d -> %s" % (seed.bits.length, args.n, args.output))
    return EXIT_OK


def cmd_params(args):
    n, t = args.n, args.leaked_bits
    if t < 0:
        raise ParameterError("leaked bits must be non-negative")
    if args.s_step < 1:
        raise ParameterError("--s-step must be at least 1, got %d" % args.s_step)
    if not 1 <= args.s_min <= args.s_max:
        raise ParameterError(
            "margin range needs 1 <= --s-min <= --s-max, got --s-min %d --s-max %d"
            % (args.s_min, args.s_max)
        )
    if n - t - args.s_min < 1:
        raise ParameterError(
            "no feasible margins: n-t = %d leaves no key at s >= %d" % (n - t, args.s_min)
        )
    if not is_supported_length(n):
        print("note: n=%d is not a transform length; table is arithmetic only" % n)
    print("n=%d leaked=%d" % (n, t))
    print("%10s %12s %22s" % ("margin s", "final r", "leakage bound (bits)"))
    for s in range(args.s_min, args.s_max + 1, args.s_step):
        if n - t - s < 1:
            break
        print("%10d %12d %22.6e" % (s, n - t - s, leakage_bound(s)))
    return EXIT_OK


def _time_mode(x, seed, r, mode, repetitions):
    best, best_stats = None, None
    for _ in range(repetitions):
        stats = RunStats()
        key = privacy_amplify(x, seed, r, mode=mode, stats=stats)
        seconds = stats.total_seconds()
        if best is None or seconds < best:
            best, best_stats = seconds, stats
    return best, best_stats, key.bits


def _time_exact_hash(x, seed, r, repetitions):
    import time

    seconds = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        hash_direct(x, seed, r)
        seconds.append(time.perf_counter() - t0)
    return min(seconds)


def cmd_bench(args):
    if args.repetitions < 1:
        raise ParameterError(
            "--repetitions must be at least 1, got %d" % args.repetitions
        )
    n = args.n
    report = bench_transpose(matrix_side(n), tile=args.tile, repetitions=args.repetitions)
    print(render_bench_report(report))

    rng = np.random.default_rng(7)
    x = BitVector.from_bits(rng.integers(0, 2, n, dtype=np.uint8))
    seed = ToeplitzSeed(BitVector.from_bits(rng.integers(0, 2, n - 1, dtype=np.uint8)))
    r = n // 2
    print("pipeline bench: n=%d r=%d (best of %d)" % (n, r, args.repetitions))
    mode_rows = {}
    for mode in MODES:
        _time_mode(x, seed, r, mode, 1)  # warm caches
        seconds, stats, key = _time_mode(x, seed, r, mode, args.repetitions)
        mode_rows[mode] = (seconds, stats, key)
        print(
            "  mode %s: %.4f s, %.2f Mbps, %d transposes"
            % (mode, seconds, n / seconds / 1e6, stats.transposes)
        )
        for name, sec in stats.timings.items():
            print("    %-9s %.4f s" % (name, sec))
    ratio = mode_rows["A"][0] / mode_rows["B"][0]
    print("mode B speedup over mode A: %.3fx" % ratio)
    # the untimed first call checks mode B's key and warms caches
    if hash_direct(x, seed, r) != mode_rows["B"][2]:
        print("exact hash: mode B's key differs from the direct hash")
        return EXIT_MISMATCH
    exact = _time_exact_hash(x, seed, r, args.repetitions)
    print("exact hash: %.4f s" % exact)

    if args.output:
        merged = dict(report, **_environment())
        for mode, (seconds, stats, _) in mode_rows.items():
            merged["mode_%s_seconds" % mode] = seconds
            merged["mode_%s_mbps" % mode] = n / seconds / 1e6
            merged["mode_%s_transposes" % mode] = stats.transposes
        merged["hash_direct_seconds"] = exact
        _append_record(args.output, merged)
        print("appended JSON record -> %s" % args.output)
    return EXIT_OK


def _add_seed_source(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--seed-file", help="QPA1 seed file (n-1 bits)")
    group.add_argument(
        "--master-secret",
        help="64 hex digits; the seed is derived with SHA-256 in counter mode",
    )


def build_parser():
    """A new parser for the ``qpa`` command line (`main` builds one per
    process and reuses it)."""
    parser = argparse.ArgumentParser(
        prog="qpa",
        description="Privacy amplification for quantum key distribution: "
        "hash an n-bit raw key down to r final bits via an FFT cyclic "
        "convolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="distill a final key from a raw-key file")
    p.add_argument("--input", required=True, help="QPA1 raw-key file")
    p.add_argument("--output", required=True, help="QPA1 final-key file to write")
    _add_seed_source(p)
    p.add_argument("--final-bits", type=int, help="final key length r")
    p.add_argument("--leaked-bits", type=int, help="bits assumed leaked (t)")
    p.add_argument("--security-bits", type=int, help="security margin s = n-t-r")
    p.add_argument("--mode", choices=MODES, default="B",
                   help="transform schedule (default B)")
    p.add_argument("--manifest", help="append a JSON line per run to this file")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="check a final key against the direct hash")
    p.add_argument("--input", required=True, help="QPA1 raw-key file")
    p.add_argument("--final", required=True, help="QPA1 final-key file")
    _add_seed_source(p)
    p.add_argument("--samples", type=int, default=256,
                   help="rows to spot-check for large n (default 256)")
    p.add_argument("--full-compare-limit", type=int, default=262144,
                   help="compare every bit when n is at most this (default 262144)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time transposes, both pipeline modes and the exact hash")
    p.add_argument("--n", type=int, default=1 << 20,
                   help="transform length (default 1048576)")
    p.add_argument("--tile", type=int,
                   help="tile side for the transpose bench and its modeled row "
                   "spans (default: the model tile); the pipeline runs at its own")
    p.add_argument("--repetitions", type=int, default=3,
                   help="timing repetitions, best-of (default 3)")
    p.add_argument("--output", help="append a JSON record per bench to this file")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen-seed", help="derive a seed file from a master secret")
    p.add_argument("--n", type=int, required=True, help="raw key length the seed serves")
    p.add_argument("--master-secret", required=True, help="64 hex digits")
    p.add_argument("--output", required=True, help="QPA1 seed file to write")
    p.set_defaults(func=cmd_gen_seed)

    p = sub.add_parser("params", help="print the r / margin trade-off for one n")
    p.add_argument("--n", type=int, required=True, help="raw key length")
    p.add_argument("--leaked-bits", type=int, required=True, help="bits assumed leaked")
    p.add_argument("--s-min", type=int, default=8)
    p.add_argument("--s-max", type=int, default=128)
    p.add_argument("--s-step", type=int, default=8)
    p.set_defaults(func=cmd_params)

    return parser


_PARSER = None


def _parser():
    """The parser `main` parses with: built on first use, once per process."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as err:
        print("format error: %s" % err, file=sys.stderr)
        return EXIT_FORMAT
    except ParameterError as err:
        print("parameter error: %s" % err, file=sys.stderr)
        return EXIT_PARAMETER
    except PrecisionError as err:
        print("precision error: %s" % err, file=sys.stderr)
        return EXIT_PRECISION
    except OSError as err:
        print("i/o error: %s" % err, file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
