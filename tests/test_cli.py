"""Command-line interface: exit codes, files, and messages."""

import dataclasses
import json
import math
import os
import platform
import re
import sys

import numpy as np
import pytest

import qpa.cli as cli
import qpa.transpose
from conftest import random_bitvector
from qpa import (
    ROLE_FINAL,
    ROLE_RAW,
    ROLE_SEED,
    BitVector,
    PrecisionError,
    ToeplitzSeed,
    generate_seed,
    read_bits,
    write_bits,
)
from qpa.oracle import hash_direct

SECRET = "ab" * 32


@pytest.fixture
def raw_file(tmp_path):
    rng = np.random.default_rng(70)
    x = random_bitvector(rng, 256)
    path = tmp_path / "raw.qpa1"
    write_bits(x, path, ROLE_RAW)
    return path, x


def test_run_distills_and_reports(raw_file, tmp_path, capsys):
    raw_path, x = raw_file
    out_path = tmp_path / "final.qpa1"
    code = cli.main([
        "run", "--input", str(raw_path), "--output", str(out_path),
        "--master-secret", SECRET, "--final-bits", "100",
    ])
    assert code == 0
    seed = generate_seed(bytes.fromhex(SECRET), 256)
    final = read_bits(out_path, expected_length=100, expected_role=ROLE_FINAL)
    assert final == hash_direct(x, seed, 100)
    assert "distilled 100 bits from 256" in capsys.readouterr().out


def test_run_modes_produce_identical_files(raw_file, tmp_path):
    raw_path, _ = raw_file
    outs = {}
    for mode in ("A", "B"):
        out_path = tmp_path / ("final_%s.qpa1" % mode)
        code = cli.main([
            "run", "--input", str(raw_path), "--output", str(out_path),
            "--master-secret", SECRET, "--final-bits", "99", "--mode", mode,
        ])
        assert code == 0
        outs[mode] = out_path.read_bytes()
    assert outs["A"] == outs["B"]


def test_run_derives_r_from_security_terms(raw_file, tmp_path):
    raw_path, _ = raw_file
    out_path = tmp_path / "final.qpa1"
    code = cli.main([
        "run", "--input", str(raw_path), "--output", str(out_path),
        "--master-secret", SECRET, "--leaked-bits", "28", "--security-bits", "100",
    ])
    assert code == 0
    assert read_bits(out_path).length == 256 - 28 - 100


def test_run_rejects_margin_below_one(raw_file, tmp_path, capsys):
    raw_path, _ = raw_file
    out_path = tmp_path / "final.qpa1"
    code = cli.main([
        "run", "--input", str(raw_path), "--output", str(out_path),
        "--master-secret", SECRET, "--leaked-bits", "28", "--security-bits", "0",
    ])
    assert code == 3
    assert "at least 1" in capsys.readouterr().err
    assert not out_path.exists()


def test_run_parameter_mixups(raw_file, tmp_path):
    raw_path, _ = raw_file
    out = str(tmp_path / "final.qpa1")
    base = ["run", "--input", str(raw_path), "--output", out,
            "--master-secret", SECRET]
    assert cli.main(base + ["--final-bits", "100", "--leaked-bits", "28"]) == 3
    assert cli.main(base + ["--final-bits", "100", "--security-bits", "9"]) == 3
    assert cli.main(base) == 3
    assert cli.main(base + ["--leaked-bits", "28"]) == 3
    assert cli.main(base + ["--final-bits", "0"]) == 3
    with pytest.raises(SystemExit) as exc:  # the pipeline picks its own tile
        cli.main(base + ["--final-bits", "100", "--tile", "4"])
    assert exc.value.code == 2


def test_run_appends_manifest(raw_file, tmp_path):
    raw_path, _ = raw_file
    out_path = tmp_path / "final.qpa1"
    manifest = tmp_path / "runs.jsonl"
    for _ in range(2):
        code = cli.main([
            "run", "--input", str(raw_path), "--output", str(out_path),
            "--master-secret", SECRET, "--leaked-bits", "28",
            "--security-bits", "100", "--mode", "B",
            "--manifest", str(manifest),
        ])
        assert code == 0
    body = manifest.read_text()
    assert SECRET not in body.lower()  # key material never appears
    records = [json.loads(line) for line in body.splitlines()]
    assert len(records) == 2
    stages = ("build", "pack", "forward", "unpack", "multiply", "inverse", "finalize")
    for rec in records:
        assert rec["n"] == 256 and rec["r"] == 128
        assert rec["t"] == 28 and rec["s"] == 100
        assert rec["mode"] == "B"
        assert rec["transposes"] == 2
        assert 0 <= rec["residual"] < 0.25
        assert rec["input"] == str(raw_path) and rec["output"] == str(out_path)
        assert rec["time"]
        for stage in stages:
            assert rec["seconds_%s" % stage] > 0
        assert rec["seconds_total"] == pytest.approx(
            sum(rec["seconds_%s" % stage] for stage in stages)
        )


def test_run_manifest_without_security_terms(raw_file, tmp_path):
    raw_path, _ = raw_file
    manifest = tmp_path / "runs.jsonl"
    assert cli.main([
        "run", "--input", str(raw_path), "--output", str(tmp_path / "f.qpa1"),
        "--master-secret", SECRET, "--final-bits", "100",
        "--manifest", str(manifest),
    ]) == 0
    (rec,) = [json.loads(line) for line in manifest.read_text().splitlines()]
    assert rec["r"] == 100 and rec["t"] is None and rec["s"] is None


def test_run_manifest_records_headroom_and_environment(tmp_path, monkeypatch):
    rng = np.random.default_rng(72)
    raw_path, out_path = tmp_path / "raw.qpa1", tmp_path / "final.qpa1"
    write_bits(random_bitvector(rng, 1 << 12), raw_path, ROLE_RAW)
    manifest = tmp_path / "runs.jsonl"
    argv = [
        "run", "--input", str(raw_path), "--output", str(out_path),
        "--master-secret", SECRET, "--final-bits", "2048",
        "--manifest", str(manifest),
    ]
    assert cli.main(argv) == 0
    # an exactly integral convolution (residual 0.0, which random blocks
    # often give) must still record a finite headroom
    amplify = cli.privacy_amplify
    monkeypatch.setattr(
        cli, "privacy_amplify",
        lambda *a, **kw: dataclasses.replace(amplify(*a, **kw), residual=0.0),
    )
    assert cli.main(argv) == 0
    body = manifest.read_text()
    key = read_bits(out_path).to_bytes().hex()
    assert SECRET not in body.lower() and key not in body.lower()
    records = [json.loads(line) for line in body.splitlines()]
    assert records[1]["residual"] == 0.0
    for rec in records:
        assert math.isfinite(rec["headroom"])
        assert rec["headroom"] == pytest.approx(
            math.log10(0.25 / max(rec["residual"], sys.float_info.epsilon))
        )
        assert rec["numpy_version"] == np.__version__
        assert rec["python_version"] == platform.python_version()
        assert rec["cpu_count"] == os.cpu_count()


def test_run_file_errors(tmp_path):
    out = str(tmp_path / "final.qpa1")
    args = ["--output", out, "--master-secret", SECRET, "--final-bits", "10"]
    # missing input
    assert cli.main(["run", "--input", str(tmp_path / "no.qpa1")] + args) == 2
    # wrong role
    seed_path = tmp_path / "seed.qpa1"
    write_bits(BitVector.zeros(255), seed_path, ROLE_SEED)
    assert cli.main(["run", "--input", str(seed_path)] + args) == 2
    # corrupt magic
    bad_path = tmp_path / "bad.qpa1"
    bad_path.write_bytes(b"XXXX" + bytes(20))
    assert cli.main(["run", "--input", str(bad_path)] + args) == 2


def test_run_unsupported_length_is_a_parameter_error(tmp_path):
    rng = np.random.default_rng(71)
    raw_path = tmp_path / "raw128.qpa1"
    write_bits(random_bitvector(rng, 128), raw_path, ROLE_RAW)
    code = cli.main([
        "run", "--input", str(raw_path), "--output", str(tmp_path / "f.qpa1"),
        "--master-secret", SECRET, "--final-bits", "10",
    ])
    assert code == 3


def test_precision_failure_exit_code(raw_file, tmp_path, monkeypatch):
    raw_path, _ = raw_file

    def explode(*args, **kwargs):
        raise PrecisionError("residual out of range")

    monkeypatch.setattr(cli, "privacy_amplify", explode)
    code = cli.main([
        "run", "--input", str(raw_path), "--output", str(tmp_path / "f.qpa1"),
        "--master-secret", SECRET, "--final-bits", "10",
    ])
    assert code == 4


def test_seed_source_is_exclusive(raw_file, tmp_path):
    raw_path, _ = raw_file
    with pytest.raises(SystemExit):
        cli.main([
            "run", "--input", str(raw_path), "--output", str(tmp_path / "f.qpa1"),
            "--master-secret", SECRET, "--seed-file", "also.qpa1",
            "--final-bits", "10",
        ])


# --------------------------------------------------------------------------
# gen-seed


def test_gen_seed_round_trip(tmp_path):
    seed_path = tmp_path / "seed.qpa1"
    code = cli.main(["gen-seed", "--n", "256", "--master-secret", SECRET,
                     "--output", str(seed_path)])
    assert code == 0
    bits = read_bits(seed_path, expected_length=255, expected_role=ROLE_SEED)
    assert ToeplitzSeed(bits) == generate_seed(bytes.fromhex(SECRET), 256)


def test_gen_seed_validation(tmp_path):
    out = str(tmp_path / "seed.qpa1")
    assert cli.main(["gen-seed", "--n", "100", "--master-secret", SECRET,
                     "--output", out]) == 3
    assert cli.main(["gen-seed", "--n", "256", "--master-secret", "zz",
                     "--output", out]) == 3
    assert cli.main(["gen-seed", "--n", "256", "--master-secret", "abcd",
                     "--output", out]) == 3


def test_run_accepts_seed_file(raw_file, tmp_path):
    raw_path, _ = raw_file
    seed_path = tmp_path / "seed.qpa1"
    assert cli.main(["gen-seed", "--n", "256", "--master-secret", SECRET,
                     "--output", str(seed_path)]) == 0
    a = tmp_path / "a.qpa1"
    b = tmp_path / "b.qpa1"
    assert cli.main(["run", "--input", str(raw_path), "--output", str(a),
                     "--seed-file", str(seed_path), "--final-bits", "64"]) == 0
    assert cli.main(["run", "--input", str(raw_path), "--output", str(b),
                     "--master-secret", SECRET, "--final-bits", "64"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_rejects_wrong_seed_length(raw_file, tmp_path):
    raw_path, _ = raw_file
    seed_path = tmp_path / "seed.qpa1"
    assert cli.main(["gen-seed", "--n", "1024", "--master-secret", SECRET,
                     "--output", str(seed_path)]) == 0
    code = cli.main(["run", "--input", str(raw_path),
                     "--output", str(tmp_path / "f.qpa1"),
                     "--seed-file", str(seed_path), "--final-bits", "10"])
    assert code == 2  # 1023 seed bits cannot serve a 256-bit input


# --------------------------------------------------------------------------
# verify


def _distill(tmp_path, raw_path, r=100):
    out_path = tmp_path / "final.qpa1"
    assert cli.main([
        "run", "--input", str(raw_path), "--output", str(out_path),
        "--master-secret", SECRET, "--final-bits", str(r),
    ]) == 0
    return out_path


def test_verify_full_compare(raw_file, tmp_path, capsys):
    raw_path, _ = raw_file
    final_path = _distill(tmp_path, raw_path)
    code = cli.main(["verify", "--input", str(raw_path), "--final", str(final_path),
                     "--master-secret", SECRET])
    assert code == 0
    assert "all 100 bits match" in capsys.readouterr().out


def test_verify_compares_every_bit_by_default_at_2_pow_14(tmp_path, capsys):
    n, r = 1 << 14, 1 << 13
    raw_path = tmp_path / "raw.qpa1"
    write_bits(random_bitvector(np.random.default_rng(71), n), raw_path, ROLE_RAW)
    final_path = _distill(tmp_path, raw_path, r)
    code = cli.main(["verify", "--input", str(raw_path), "--final", str(final_path),
                     "--master-secret", SECRET])
    assert code == 0
    assert "all %d bits match" % r in capsys.readouterr().out


def test_verify_compares_every_bit_by_default_at_2_pow_18(tmp_path, capsys):
    n, r = 1 << 18, (1 << 17) - 64
    raw_path = tmp_path / "raw.qpa1"
    write_bits(random_bitvector(np.random.default_rng(72), n), raw_path, ROLE_RAW)
    final_path = _distill(tmp_path, raw_path, r)
    code = cli.main(["verify", "--input", str(raw_path), "--final", str(final_path),
                     "--master-secret", SECRET])
    assert code == 0
    assert "all %d bits match" % r in capsys.readouterr().out


def test_verify_catches_tampering(raw_file, tmp_path, capsys):
    raw_path, _ = raw_file
    final_path = _distill(tmp_path, raw_path)
    final = read_bits(final_path)
    flipped = final ^ BitVector.from_bits(
        np.eye(1, final.length, 42, dtype=np.uint8)[0]
    )
    write_bits(flipped, final_path, ROLE_FINAL)
    code = cli.main(["verify", "--input", str(raw_path), "--final", str(final_path),
                     "--master-secret", SECRET])
    assert code == 5
    assert "mismatch at bit 42" in capsys.readouterr().out


def test_verify_sampled_mode(raw_file, tmp_path, capsys):
    raw_path, _ = raw_file
    final_path = _distill(tmp_path, raw_path)
    code = cli.main(["verify", "--input", str(raw_path), "--final", str(final_path),
                     "--master-secret", SECRET,
                     "--full-compare-limit", "64", "--samples", "32"])
    assert code == 0
    assert "32 sampled rows of 100" in capsys.readouterr().out


def test_verify_sampled_mode_catches_gross_tampering(raw_file, tmp_path, capsys):
    raw_path, _ = raw_file
    final_path = _distill(tmp_path, raw_path)
    final = read_bits(final_path)
    inverted = final ^ BitVector.from_bits(np.ones(final.length, dtype=np.uint8))
    write_bits(inverted, final_path, ROLE_FINAL)
    code = cli.main(["verify", "--input", str(raw_path), "--final", str(final_path),
                     "--master-secret", SECRET,
                     "--full-compare-limit", "64", "--samples", "16"])
    assert code == 5
    assert "mismatch at bit" in capsys.readouterr().out


def test_verify_rejects_non_positive_samples(raw_file, tmp_path, capsys):
    raw_path, _ = raw_file
    final_path = _distill(tmp_path, raw_path)
    final = read_bits(final_path)
    inverted = final ^ BitVector.from_bits(np.ones(final.length, dtype=np.uint8))
    write_bits(inverted, final_path, ROLE_FINAL)
    base = ["verify", "--input", str(raw_path), "--final", str(final_path),
            "--master-secret", SECRET, "--full-compare-limit", "64"]
    for samples in ("0", "-1"):
        # a wrong key must never pass on zero checked rows
        assert cli.main(base + ["--samples", samples]) == 3
        captured = capsys.readouterr()
        assert "--samples" in captured.err
        assert "verify ok" not in captured.out


def test_verify_rejects_oversized_final(raw_file, tmp_path):
    raw_path, x = raw_file
    final_path = tmp_path / "final.qpa1"
    write_bits(x, final_path, ROLE_FINAL)  # r == n is impossible
    code = cli.main(["verify", "--input", str(raw_path), "--final", str(final_path),
                     "--master-secret", SECRET])
    assert code == 2


# --------------------------------------------------------------------------
# params


def test_params_table(capsys):
    code = cli.main(["params", "--n", "1048576", "--leaked-bits", "524288",
                     "--s-min", "64", "--s-max", "128", "--s-step", "64"])
    assert code == 0
    out = capsys.readouterr().out
    assert "524224" in out  # r at s = 64
    assert "524160" in out  # r at s = 128
    assert "margin s" in out


def test_params_notes_non_transform_lengths(capsys):
    assert cli.main(["params", "--n", "100", "--leaked-bits", "10"]) == 0
    assert "arithmetic only" in capsys.readouterr().out


def test_params_infeasible(capsys):
    assert cli.main(["params", "--n", "64", "--leaked-bits", "60"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing printed before the error
    assert "no feasible margins" in captured.err
    assert cli.main(["params", "--n", "64", "--leaked-bits", "-1"]) == 3


def test_params_rejects_bad_margin_range_before_printing(capsys):
    base = ["params", "--n", "1024", "--leaked-bits", "100"]
    assert cli.main(base + ["--s-min", "64", "--s-max", "8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--s-min" in captured.err and "--s-max" in captured.err
    assert "no feasible margins" not in captured.err
    for s_min in ("-8", "0"):  # qpa run accepts no margin below 1
        assert cli.main(base + ["--s-min", s_min]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--s-min" in captured.err


def test_params_rejects_non_positive_step(capsys):
    for step in ("0", "-8"):
        assert cli.main(["params", "--n", "1024", "--leaked-bits", "100",
                         "--s-step", step]) == 3
        captured = capsys.readouterr()
        assert "--s-step" in captured.err
        assert "no feasible margins" not in captured.err


# --------------------------------------------------------------------------
# bench


def test_bench_smoke(tmp_path, capsys):
    out_path = tmp_path / "bench.jsonl"
    for _ in range(2):  # the second call appends a second record
        code = cli.main(["bench", "--n", "64", "--repetitions", "1",
                         "--output", str(out_path)])
        assert code == 0
    out = capsys.readouterr().out
    assert "transpose bench: k=8" in out
    assert "modeled row spans naive" in out
    assert "mode A:" in out and "mode B:" in out
    assert "speedup" in out
    assert len(re.findall(r"^exact hash: \d+\.\d{4} s$", out, re.M)) == 2
    for stage in ("build", "pack", "forward", "unpack", "multiply", "inverse"):
        assert out.count("%s " % stage) >= 2  # one row per stage per mode
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert len(records) == 2
    for rec in records:
        assert rec["naive_row_spans"] == 72  # 8 + 8*8
        assert rec["mode_A_transposes"] == 6
        assert rec["mode_B_transposes"] == 2
        assert rec["mode_A_seconds"] > 0 and rec["mode_B_mbps"] > 0
        assert rec["naive_gbps"] > 0 and rec["k"] == 8
        assert rec["hash_direct_seconds"] > 0


def test_bench_stops_when_the_exact_hash_differs(capsys, monkeypatch):
    # a direct hash that disagrees with mode B's key is a mismatch, and
    # no time is printed for it
    def flipped(x, seed, r):
        return hash_direct(x, seed, r) ^ BitVector.from_bits(np.eye(1, r, 0, dtype=np.uint8)[0])

    monkeypatch.setattr(cli, "hash_direct", flipped)
    assert cli.main(["bench", "--n", "64", "--repetitions", "1"]) == 5
    out = capsys.readouterr().out
    assert "exact hash: mode B's key differs" in out
    assert re.search(r"exact hash: \d", out) is None


def test_bench_models_row_spans_once_per_strategy(capsys, monkeypatch):
    calls = []
    simulate = qpa.transpose.simulate_row_spans

    def counted(*args, **kwargs):
        calls.append(args[0])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(qpa.transpose, "simulate_row_spans", counted)
    # a name the CLI imported for itself would be counted too
    monkeypatch.setattr(cli, "simulate_row_spans", counted, raising=False)
    assert cli.main(["bench", "--n", "4096", "--repetitions", "1"]) == 0
    out = capsys.readouterr().out
    assert sorted(calls) == ["blocked", "naive"]
    # k = 64 at the model tile 4: 64 + 64*64 naive, 2 * 4 * 64 blocked
    assert "naive    k=64: write 64 + read 4,096 = 4,160" in out
    assert "blocked  k=64: write 256 + read 256 = 512" in out
    # each total is printed once
    assert out.split().count("4,160") == 1 and out.split().count("512") == 1


def test_bench_rejects_bad_tile_before_timing(capsys, monkeypatch):
    calls = []
    transpose_naive = qpa.transpose.transpose_naive

    def counted(*args, **kwargs):
        calls.append(1)
        return transpose_naive(*args, **kwargs)

    monkeypatch.setattr(qpa.transpose, "transpose_naive", counted)
    for tile in ("1", "3"):  # below the model's minimum; not a divisor of k = 8
        assert cli.main(["bench", "--n", "64", "--tile", tile]) == 3
        captured = capsys.readouterr()
        assert "tile" in captured.err
        assert "transpose bench" not in captured.out
    assert calls == []


def test_bench_rejects_non_positive_repetitions(capsys):
    for repetitions in ("0", "-2"):
        assert cli.main(["bench", "--n", "64", "--repetitions", repetitions]) == 3
        captured = capsys.readouterr()
        assert "--repetitions" in captured.err
        assert "transpose bench" not in captured.out


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


# --------------------------------------------------------------------------
# one parser per process


def _session_argvs(tmp_path, raw_path):
    """A CLI session in which every call's parse differs from the last."""
    final, manifest = str(tmp_path / "final.qpa1"), str(tmp_path / "runs.jsonl")
    run = ["run", "--input", str(raw_path), "--output", final, "--master-secret", SECRET]
    verify = ["verify", "--input", str(raw_path), "--final", final, "--master-secret", SECRET]
    return [
        run + ["--final-bits", "100"],
        verify,
        run + ["--leaked-bits", "28", "--security-bits", "100"],
        verify + ["--full-compare-limit", "0", "--samples", "300"],
        verify + ["--full-compare-limit", "0"],
        run + ["--final-bits", "ten"],  # argparse refuses it: exit 2
        run + ["--final-bits", "99", "--mode", "A"],
        verify,
        run + ["--final-bits", "100", "--manifest", manifest],
        run + ["--final-bits", "101"],
        verify + ["--samples", "0"],  # exit 3, after parsing
        verify,
    ]


def _outcomes(argvs, capsys):
    """(exit code, stdout, stderr) of each call of `cli.main`, in turn."""
    got = []
    for argv in argvs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        got.append((code, captured.out, captured.err))
    return got


def test_repeated_calls_match_fresh_parsers(raw_file, tmp_path, capsys, monkeypatch):
    raw_path, _ = raw_file
    argvs = _session_argvs(tmp_path, raw_path)
    builds = []
    build_parser = cli.build_parser

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_PARSER", None)
    reused = _outcomes(argvs, capsys)
    assert len(builds) == 1  # built on the first call, reused after
    # the same session with a new parser for every call
    monkeypatch.setattr(cli, "_parser", build_parser)
    fresh = _outcomes(argvs, capsys)
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 3, 0]
    assert "verify ok: all 100 bits" in reused[1][1]
    assert "verify ok: 128 sampled rows of 128" in reused[3][1]  # capped at r
    assert "verify ok: 128 sampled rows of 128" in reused[4][1]
    assert "invalid int value: 'ten'" in reused[5][2]
    assert "verify ok: all 99 bits" in reused[7][1]
    assert "--samples must be at least 1" in reused[10][2]
    assert "verify ok: all 101 bits" in reused[11][1]
    # one manifest record per session, none from the runs without --manifest
    records = (tmp_path / "runs.jsonl").read_text().splitlines()
    assert [json.loads(line)["r"] for line in records] == [100, 100]


def test_run_times_stages_only_for_a_manifest(raw_file, tmp_path, monkeypatch):
    raw_path, _ = raw_file
    seen = []
    amplify = cli.privacy_amplify

    def recording(*args, **kwargs):
        seen.append(kwargs["stats"])
        return amplify(*args, **kwargs)

    monkeypatch.setattr(cli, "privacy_amplify", recording)
    base = ["run", "--input", str(raw_path), "--output", str(tmp_path / "f.qpa1"),
            "--master-secret", SECRET, "--final-bits", "100"]
    assert cli.main(base) == 0
    assert cli.main(base + ["--manifest", str(tmp_path / "runs.jsonl")]) == 0
    assert seen[0] is None and seen[1].transposes == 2


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()
    assert cli._parser() is cli._parser()


def test_bench_record_holds_the_environment_and_no_key_material(tmp_path):
    out_path = tmp_path / "bench.jsonl"
    assert cli.main(["bench", "--n", "64", "--repetitions", "1",
                     "--output", str(out_path)]) == 0
    body = out_path.read_text()
    (rec,) = [json.loads(line) for line in body.splitlines()]
    assert rec["numpy_version"] == np.__version__
    assert rec["python_version"] == platform.python_version()
    assert rec["cpu_count"] == os.cpu_count()
    # the bench distills a fixed random block; no bytes of it, of its
    # seed or of a key are written, in hex or any other long encoding
    rng = np.random.default_rng(7)
    x = BitVector.from_bits(rng.integers(0, 2, 64, dtype=np.uint8))
    seed = BitVector.from_bits(rng.integers(0, 2, 63, dtype=np.uint8))
    assert x.to_bytes().hex() not in body and seed.to_bytes().hex() not in body
    assert re.search(r"[A-Za-z0-9+/=]{32,}", body) is None
