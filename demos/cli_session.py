"""
The same session from the command line
======================================

Everything in distill_and_verify.py is also reachable through the qpa
command.  This script drives the CLI entry point directly (each call
below is exactly `qpa <args>` in a shell) and shows the files and exit
codes a scripted deployment would see.
"""

import tempfile
from pathlib import Path

import numpy as np

import qpa
from qpa.cli import main

rng = np.random.default_rng(99)
secret = bytes(rng.integers(0, 256, 32, dtype=np.uint8)).hex()

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    raw_path = tmp / "raw.qpa1"
    seed_path = tmp / "seed.qpa1"
    final_path = tmp / "final.qpa1"
    manifest = tmp / "runs.jsonl"

    # a 65536-bit raw key to work on
    raw = qpa.BitVector.from_bits(rng.integers(0, 2, 1 << 16, dtype=np.uint8))
    qpa.write_bits(raw, raw_path, qpa.ROLE_RAW)

    # table of feasible parameter choices for this n
    print("$ qpa params --n 65536 --leaked-bits 20000 --s-min 32 --s-max 96 --s-step 32")
    main(["params", "--n", "65536", "--leaked-bits", "20000",
          "--s-min", "32", "--s-max", "96", "--s-step", "32"])

    # persist the seed so both endpoints can load the identical file
    print("\n$ qpa gen-seed --n 65536 --master-secret ... --output seed.qpa1")
    main(["gen-seed", "--n", "65536", "--master-secret", secret,
          "--output", str(seed_path)])

    # distill with the margin checked up front, appending to a manifest
    print("\n$ qpa run --input raw.qpa1 --output final.qpa1 --seed-file seed.qpa1 \\")
    print("      --leaked-bits 20000 --security-bits 64 --manifest runs.jsonl")
    code = main(["run", "--input", str(raw_path), "--output", str(final_path),
                 "--seed-file", str(seed_path),
                 "--leaked-bits", "20000", "--security-bits", "64",
                 "--manifest", str(manifest)])
    print("exit code %d" % code)

    # recheck the final key against the exact reference hash
    print("\n$ qpa verify --input raw.qpa1 --final final.qpa1 --seed-file seed.qpa1")
    code = main(["verify", "--input", str(raw_path), "--final", str(final_path),
                 "--seed-file", str(seed_path)])
    print("exit code %d" % code)

    # a tampered key is caught and reported with a distinct exit code;
    # one flipped bit among 45472 would likely slip past a 256-row
    # sample, but verify compares every bit up to n = 2^18 by default
    final = qpa.read_bits(final_path)
    flip = np.zeros(final.length, dtype=np.uint8)
    flip[123] = 1
    qpa.write_bits(final ^ qpa.BitVector.from_bits(flip), final_path, qpa.ROLE_FINAL)
    print("\n$ qpa verify --input raw.qpa1 --final final.qpa1 --seed-file seed.qpa1   (one bit flipped)")
    code = main(["verify", "--input", str(raw_path), "--final", str(final_path),
                 "--seed-file", str(seed_path)])
    print("exit code %d (5 means verification mismatch)" % code)

    print("\nmanifest written by the run (one JSON line per run):")
    print(manifest.read_text())
