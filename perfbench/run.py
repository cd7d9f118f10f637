#!/usr/bin/env python3
"""Build and run the ladiff benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload lib-latex --seed 1 --seconds 20 --trace 0

Builds the perfbench Go module (which compiles ladiff from the checkout's
source) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
with the Go build cache, module cache, temporary files and Go's own
config kept under the same directory, then replaces itself with the
benchmark binary. Every
argument is passed through. A failed build exits non-zero and prints no
result line.
"""

import os
import subprocess
import sys


def main() -> None:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(build.returncode or 1)
    args = [binary] + sys.argv[1:] + ["-workdir", os.path.join(out, "work")]
    sys.stdout.flush()
    os.execve(binary, args, env)


if __name__ == "__main__":
    main()
