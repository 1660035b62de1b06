"""Native tier of the compiled engines: their C level loops, built at first use.

One library holds the C level loops of two engines:

* :data:`SOURCE` (``_cop.c``): the forward and backward passes of
  :class:`~repro.analysis.compiled.CompiledCop`;
* :data:`WORDS_SOURCE` (``repro/simulation/_words.c``): good-machine
  simulation and per-fault, event-driven fault propagation of
  :class:`~repro.simulation.compiled.CompiledCircuit`.

Each engine runs its C loops whenever :func:`library` returns a loaded
library, and its numpy kernels otherwise.  Nothing selects the tier but the
presence of a working C compiler: the first call looks for ``cc`` (then
``gcc``) on ``PATH``, compiles both sources with :data:`FLAGS` into one
library in a per-user cache directory and loads it with
:class:`ctypes.CDLL`, which releases the interpreter lock for the duration
of every call.  ``-ffp-contract=off`` and the absence of ``-ffast-math``
keep the IEEE operation order of the numpy COP kernels, so both tiers give
bit-identical results; the word-domain loops are bitwise and exact in any
order.  No C loop keeps mutable state between calls, so threads may call
them at once.

The library file is named by the sha256 of every source, the flags, the
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
    "WORDS_SOURCE",
    "FLAGS",
    "find_compiler",
    "default_cache_dir",
    "load_library",
    "library",
    "tier",
]

log = logging.getLogger(__name__)

#: The C source of the COP level loops (shipped as package data).
SOURCE = Path(__file__).with_name("_cop.c")

#: The C source of the word-domain loops (shipped as package data).
WORDS_SOURCE = Path(__file__).parent.parent / "simulation" / "_words.c"

#: Compiler flags: optimized, position independent, and no floating-point
#: contraction or reassociation, so the numpy operation order survives.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

#: Seconds a compiler invocation may take before the build counts as failed.
_COMPILER_TIMEOUT = 120.0

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
#: name -> (argument types, result type) of every exported function.
_SIGNATURES = {
    # n_rows, n_nets, probs, n_order, order, gate_output, gate_op,
    # gate_invert, fanin_start, fanin_len, fanin_flat
    "cop_forward": ((_I64, _I64, _PTR, _I64) + (_PTR,) * 7, None),
    # n_rows, n_nets, n_pins, probs, miss, pin_obs, n_order, order,
    # gate_output, gate_op, fanin_start, fanin_len, fanin_flat, pin_base
    "cop_backward": ((_I64, _I64, _I64, _PTR, _PTR, _PTR, _I64) + (_PTR,) * 7, None),
    # n_words, values, max_arity, n_order, order, gate_output, gate_op,
    # gate_invert, fanin_start, fanin_len, fanin_flat
    "sim_words": ((_I64, _PTR, _I64, _I64) + (_PTR,) * 7, ctypes.c_int),
    # n_words, good, n_faults, fault_net, fault_gate, fault_stuck,
    # valid_mask, detection, out_words, n_outputs, outputs, is_output,
    # n_nets, n_gates, max_arity, gate_output, gate_op, gate_invert,
    # fanin_start, fanin_len, fanin_flat, fanout_start, fanout_gate,
    # n_levels, level_start, gate_level
    "fault_words": (
        (_I64, _PTR, _I64) + (_PTR,) * 6 + (_I64,) + (_PTR,) * 2 + (_I64,) * 3
        + (_PTR,) * 8 + (_I64,) + (_PTR,) * 2,
        ctypes.c_int,
    ),
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


def _sources() -> tuple:
    """Every C source of the library, in build order."""
    return (SOURCE, WORDS_SOURCE)


def _library_name(compiler: str) -> str:
    """File name of the build of :func:`_sources` by ``compiler`` on this machine."""
    version = subprocess.run(
        [compiler, "--version"],
        capture_output=True,
        check=True,
        timeout=_COMPILER_TIMEOUT,
    ).stdout
    digest = hashlib.sha256()
    flags = "\0".join(FLAGS).encode()
    sources = [source.read_bytes() for source in _sources()]
    for part in (*sources, flags, version, platform.machine().encode()):
        digest.update(part)
        digest.update(b"\0")
    return f"native-{digest.hexdigest()}.so"


def _build(compiler: str, target: Path) -> None:
    """Compile :func:`_sources` to ``target`` through a temporary file."""
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *FLAGS, "-o", tmp, *map(str, _sources())],
            capture_output=True,
            check=True,
            timeout=_COMPILER_TIMEOUT,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: Path) -> ctypes.CDLL:
    """Load ``path`` and declare the signatures of its functions."""
    lib = ctypes.CDLL(str(path))
    for name, (argtypes, restype) in _SIGNATURES.items():
        function = getattr(lib, name)
        function.argtypes = argtypes
        function.restype = restype
    return lib


_FALLBACK = "COP and fault simulation run on their numpy kernels"


def _describe(exc: BaseException) -> str:
    stderr = getattr(exc, "stderr", None)
    if stderr:
        return f"{exc}: {stderr.decode(errors='replace').strip()}"
    return str(exc)


def load_library(cache_dir: Path) -> Optional[ctypes.CDLL]:
    """Build (if needed) and load the native library; None on any failure.

    Every failure logs exactly one ``WARNING`` naming the numpy fallback.
    """
    compiler = find_compiler()
    if compiler is None:
        log.warning("no C compiler (cc or gcc) on PATH; %s", _FALLBACK)
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
            "the native library %s does not load after a rebuild (%s); %s",
            path,
            _describe(failure),
            _FALLBACK,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        log.warning(
            "building the native library with %s failed (%s); %s",
            compiler,
            _describe(exc),
            _FALLBACK,
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
    """The process-wide native library, built and loaded on first call.

    None when no compiler is available or the build failed (the numpy
    kernels run instead); the outcome is decided once per process.
    """
    global _library
    with _LOCK:
        if _library is _UNSET:
            _library = load_library(default_cache_dir())
        return _library


def tier() -> str:
    """Which tier this process runs: ``"native"`` or ``"numpy"``."""
    return "numpy" if library() is None else "native"
