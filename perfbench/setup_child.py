"""One cold start, timed in a fresh process: import qpa, distill one block.

Run by ``run.py``, never by hand.  The clock starts just before
``import qpa`` and stops when the first distillation at the workload's
length has finished, so it covers the imports (numpy included) and the
cold caches of the first transform.  Reading the input, which the parent
generated, happens before the clock starts.

    setup_child.py api <src dir> <n> <r> <t> <s>   key material on stdin
    setup_child.py cli <src dir> <argv...>          a ``qpa run`` argv

Prints one JSON line with ``setup_s`` and, for ``api``, the final key as
hex for the parent to compare.  The parent never echoes that line.
"""

import sys
import time


def main(argv):
    kind, src = argv[0], argv[1]
    sys.path.insert(0, src)
    if kind == "api":
        n, r, t, s = (int(v) for v in argv[2:6])
        data = sys.stdin.buffer.read()
        secret, raw = data[:32], data[32:]
        t0 = time.perf_counter()
        import qpa

        x = qpa.BitVector.from_bytes(raw, n)
        seed = qpa.generate_seed(secret, n)
        key = qpa.privacy_amplify(x, seed, r, mode="B", t=t, s_min=s)
        elapsed = time.perf_counter() - t0
        result = {"setup_s": elapsed, "key": key.bits.to_bytes().hex()}
    else:
        import contextlib
        import io

        t0 = time.perf_counter()
        import qpa.cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = qpa.cli.main(argv[2:])
        elapsed = time.perf_counter() - t0
        result = {"setup_s": elapsed, "exit": code}
    import json

    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
