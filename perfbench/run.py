#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload bank-zipf --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The Go build cache, temporary files and
the benchmark's data dirs all live under .bench_build/ in that checkout, so
nothing is read or written outside it. The last line of standard output is
the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for var, sub in (
        ("GOCACHE", "gocache"),
        ("GOPATH", "gopath"),
        ("GOMODCACHE", "gopath/pkg/mod"),
        ("TMPDIR", "tmp"),
        ("GOTMPDIR", "tmp"),
        ("HOME", "home"),
        ("XDG_CONFIG_HOME", "home/.config"),
        ("XDG_CACHE_HOME", "home/.cache"),
    ):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env["GOFLAGS"] = "-mod=readonly"
    env["GOPROXY"] = "off"
    env["GOTOOLCHAIN"] = "local"
    env["CGO_ENABLED"] = "0"
    return env


def main():
    env = go_env()
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(build.returncode or 1)
    args = [binary, "--data", os.path.join(BUILD, "perfbench")] + sys.argv[1:]
    os.execve(binary, args, env)


if __name__ == "__main__":
    main()
