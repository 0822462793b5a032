"""Building the program from source and describing the host.

The calibration block is a diagnostic printed with every run, never a
gated metric: an ALU spin is far steadier than rowpress itself, so a
slow spin says the host drifted, while a steady spin beside a slow
metric says the code did.
"""

import glob
import hashlib
import json
import os
import re
import subprocess

from .procs import BenchError

BUILD_TYPE = "RelWithDebInfo"   # the repository's own default
BUILD_TIMEOUT_S = 840


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, base, "perfbench")


def build(root):
    """Configure once, then build rowpress and rp_probe incrementally.
    Returns (rowpress binary, rp_probe binary, build directory)."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        raise BenchError("no rowpress sources beside perfbench/ in %s"
                         % root)
    bdir = build_dir(root)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", bdir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "rowpress_cli", "rp_probe"])
    with open(log_path, "wb") as log:
        for argv in steps:
            try:
                code = subprocess.run(argv, stdout=log, stderr=log,
                                      stdin=subprocess.DEVNULL,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError("build step %s failed: %s"
                                 % (argv[:2], e)) from e
            if code != 0:
                with open(log_path, "rb") as f:
                    tail = f.read()[-2000:].decode(errors="replace")
                raise BenchError("build failed (%s):\n%s"
                                 % (" ".join(argv[:2]), tail))
    return (os.path.join(bdir, "rowpress", "bench", "rowpress"),
            os.path.join(bdir, "rp_probe"), bdir)


def _compiler(bdir):
    for path in glob.glob(os.path.join(bdir, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if cid and ver:
            return "%s %s" % (cid.group(1), ver.group(1))
    return "unknown"


def _commit(root):
    """HEAD of the checkout, or None outside a git work tree (git is
    not asked then: it would search the parent directories)."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.decode().strip() if done.returncode == 0 else None


def source_digest(root):
    """Digest of the sources the benchmark builds and runs."""
    h = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirs, names in os.walk(os.path.join(root, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            paths.extend(os.path.join(dirpath, n) for n in names
                         if not n.endswith(".pyc"))
    for path in sorted(paths):
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def calibration(probe, bdir, root):
    """The host-speed block: spin times plus what built the program."""
    nproc = os.cpu_count() or 1
    done = subprocess.run([probe, "--calibrate", str(nproc)],
                          capture_output=True, timeout=60)
    if done.returncode != 0:
        raise BenchError("rp_probe --calibrate failed")
    block = json.loads(done.stdout)
    block.update({
        "nproc": nproc,
        "compiler": _compiler(bdir),
        "build_type": BUILD_TYPE,
        "commit": _commit(root),
        "source_digest": source_digest(root),
    })
    return block
