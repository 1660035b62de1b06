"""Native tier of the batched COP engine: ``_cop.c`` built at first use.

:class:`~repro.analysis.compiled.CompiledCop` runs its forward and backward
level loops in C whenever :func:`library` returns a loaded library, and its
numpy kernels otherwise.  Nothing selects the tier but the presence of a
working C compiler: the first call looks for ``cc`` (then ``gcc``) on
``PATH``, compiles :data:`SOURCE` with :data:`FLAGS` into a per-user cache
directory and loads the result with :class:`ctypes.CDLL`, which releases the
interpreter lock for the duration of every call.  ``-ffp-contract=off`` and
the absence of ``-ffast-math`` keep the IEEE operation order of the numpy
kernels, so both tiers give bit-identical results.

The library file is named by the sha256 of the source, the flags, the
compiler's ``--version`` text and the machine type, so a changed source or
compiler never loads a stale build.  The cache directory (see
:func:`default_cache_dir`) must be a directory owned by the current user and
writable by nobody else; otherwise the library is built in a private
temporary directory that is removed once it is loaded.  Builders write a
temporary file and ``os.replace`` it into place, so concurrent processes
never load a half-written library.  A cached library that fails to load is
rebuilt once.  A missing compiler, a failed build or a library that still
fails to load logs one ``WARNING`` on this module's logger and leaves the
numpy kernels in charge.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Optional

__all__ = [
    "SOURCE",
    "FLAGS",
    "find_compiler",
    "default_cache_dir",
    "load_library",
    "library",
    "tier",
]

log = logging.getLogger(__name__)

#: The C source of both level loops (shipped as package data).
SOURCE = Path(__file__).with_name("_cop.c")

#: Compiler flags: optimized, position independent, and no floating-point
#: contraction or reassociation, so the numpy operation order survives.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

#: Seconds a compiler invocation may take before the build counts as failed.
_COMPILER_TIMEOUT = 120.0

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
_SIGNATURES = {
    # n_rows, n_nets, probs, n_order, order, gate_output, gate_op,
    # gate_invert, fanin_start, fanin_len, fanin_flat
    "cop_forward": (_I64, _I64, _PTR, _I64) + (_PTR,) * 7,
    # n_rows, n_nets, n_pins, probs, miss, pin_obs, n_order, order,
    # gate_output, gate_op, fanin_start, fanin_len, fanin_flat, pin_base
    "cop_backward": (_I64, _I64, _I64, _PTR, _PTR, _PTR, _I64) + (_PTR,) * 7,
}


def find_compiler() -> Optional[str]:
    """Path of the C compiler on ``PATH`` (``cc``, then ``gcc``), or None."""
    for name in ("cc", "gcc"):
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def default_cache_dir() -> Path:
    """Per-user directory holding built libraries (``~/.cache/repro/native``).

    Without a resolvable home directory (an unknown uid with no ``HOME``) it
    is ``repro-native`` in the temporary directory; :func:`load_library`
    checks who owns it before using it.
    """
    try:
        return Path.home() / ".cache" / "repro" / "native"
    except RuntimeError:
        return Path(tempfile.gettempdir()) / "repro-native"


def _is_private_dir(path: Path) -> bool:
    """Create ``path`` (mode 0o700) and check that only this user can write it.

    The directory itself, not a symlink to one, must be owned by the current
    uid and must not be group- or world-writable: anyone who can write into
    it could plant a library this process would load.
    """
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = os.lstat(path)
    except OSError:
        return False
    return (
        stat.S_ISDIR(info.st_mode)
        and info.st_uid == os.getuid()
        and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    )


def _library_name(compiler: str) -> str:
    """File name of the build of :data:`SOURCE` by ``compiler`` on this machine."""
    version = subprocess.run(
        [compiler, "--version"],
        capture_output=True,
        check=True,
        timeout=_COMPILER_TIMEOUT,
    ).stdout
    digest = hashlib.sha256()
    flags = "\0".join(FLAGS).encode()
    for part in (SOURCE.read_bytes(), flags, version, platform.machine().encode()):
        digest.update(part)
        digest.update(b"\0")
    return f"cop-{digest.hexdigest()}.so"


def _build(compiler: str, target: Path) -> None:
    """Compile :data:`SOURCE` to ``target`` through a temporary file."""
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *FLAGS, "-o", tmp, str(SOURCE)],
            capture_output=True,
            check=True,
            timeout=_COMPILER_TIMEOUT,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: Path) -> ctypes.CDLL:
    """Load ``path`` and declare the signatures of both level loops."""
    lib = ctypes.CDLL(str(path))
    for name, argtypes in _SIGNATURES.items():
        function = getattr(lib, name)
        function.argtypes = argtypes
        function.restype = None
    return lib


def _describe(exc: BaseException) -> str:
    stderr = getattr(exc, "stderr", None)
    if stderr:
        return f"{exc}: {stderr.decode(errors='replace').strip()}"
    return str(exc)


def load_library(cache_dir: Path) -> Optional[ctypes.CDLL]:
    """Build (if needed) and load the native COP library; None on any failure.

    Every failure logs exactly one ``WARNING`` naming the numpy fallback.
    """
    compiler = find_compiler()
    if compiler is None:
        log.warning("no C compiler (cc or gcc) on PATH; COP runs on its numpy kernels")
        return None
    private_tmp = None
    try:
        if not _is_private_dir(cache_dir):
            private_tmp = tempfile.mkdtemp(prefix="repro-native-")
            cache_dir = Path(private_tmp)
        path = cache_dir / _library_name(compiler)
        for attempt in range(2):
            if attempt or not path.exists():
                _build(compiler, path)
            try:
                return _open(path)
            except (OSError, AttributeError) as exc:
                failure = exc
        log.warning(
            "the native COP library %s does not load after a rebuild (%s); "
            "COP runs on its numpy kernels",
            path,
            _describe(failure),
        )
    except (OSError, subprocess.SubprocessError) as exc:
        log.warning(
            "building the native COP library with %s failed (%s); "
            "COP runs on its numpy kernels",
            compiler,
            _describe(exc),
        )
    finally:
        if private_tmp is not None:
            # A loaded library stays mapped after its file is removed.
            shutil.rmtree(private_tmp, ignore_errors=True)
    return None


_UNSET = object()
_library = _UNSET
_LOCK = threading.Lock()


def library() -> Optional[ctypes.CDLL]:
    """The process-wide native COP library, built and loaded on first call.

    None when no compiler is available or the build failed (the numpy
    kernels run instead); the outcome is decided once per process.
    """
    global _library
    with _LOCK:
        if _library is _UNSET:
            _library = load_library(default_cache_dir())
        return _library


def tier() -> str:
    """Which COP tier this process runs: ``"native"`` or ``"numpy"``."""
    return "numpy" if library() is None else "native"
