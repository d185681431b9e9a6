#!/usr/bin/env python3
"""Builds and runs the QUASII benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds two things with cargo (into $CARGO_TARGET_DIR, default
`.bench_build`): the deployed `quasii` binary of the repository's
workspace, which a traced `steady_uniform` run serves with, and the
`perfbench` package next to this file. Then it runs `perfbench` with the same
arguments. Build output goes to stderr; the last line of stdout is the
result. See NOTES.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args):
    # Build output must not reach stdout, whose last line is the result.
    r = subprocess.run(["cargo", "build", "--release", "--quiet"] + args,
                       cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.exit("perfbench: build failed: cargo build " + " ".join(args))


def main():
    target = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    os.environ["CARGO_TARGET_DIR"] = target
    build(["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
           "-p", "quasii-cli", "--bin", "quasii"])
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    exe = os.path.join(target, "release")
    r = subprocess.run([os.path.join(exe, "perfbench")] + sys.argv[1:]
                       + ["--quasii", os.path.join(exe, "quasii")], cwd=ROOT)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
