"""C backend: compile ``_kernels.c`` on demand and bind it via ctypes.

No prebuilt wheels, no pip dependency: the kernels are a single C99
file shipped with the package, compiled once per (source, compiler)
pair with whatever ``cc``/``gcc``/``clang`` the machine offers::

    cc -O3 -fPIC -shared -o $REPRO_KERNELS_CACHE/repro_kernels_<hash>.so _kernels.c

The output lands in ``REPRO_KERNELS_CACHE`` (default
``~/.cache/repro-kernels``, falling back to the system temp dir), keyed
by a hash of the source and toolchain so a source edit or compiler
upgrade triggers exactly one rebuild; CI caches the directory between
runs.  The compile is atomic (build to a temp name, ``os.replace``) so
concurrent first-use from several processes cannot load a half-written
library.

Every failure mode — no compiler, compile error, load error — raises
:class:`~repro.kernels.registry.KernelUnavailableError`, which the
registry memoizes: ``auto`` degrades to the python reference and never
re-probes the toolchain in the same process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Tuple

import numpy as np

from repro.kernels.registry import KernelBackend, KernelUnavailableError

#: Environment variable overriding the compile-cache directory.
CACHE_ENV = "REPRO_KERNELS_CACHE"

_SOURCE = Path(__file__).with_name("_kernels.c")

_i64p = ctypes.POINTER(ctypes.c_int64)
_f64p = ctypes.POINTER(ctypes.c_double)
_i8p = ctypes.POINTER(ctypes.c_int8)
_u8p = ctypes.POINTER(ctypes.c_uint8)
_ptr = ctypes.c_void_p


def cache_dir() -> Path:
    """The compile-cache directory (created on demand)."""
    override = os.environ.get(CACHE_ENV, "").strip()
    if override:
        return Path(override)
    home = Path.home()
    if os.access(home, os.W_OK):
        return home / ".cache" / "repro-kernels"
    return Path(tempfile.gettempdir()) / "repro-kernels"


def _compiler() -> str:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    raise KernelUnavailableError(
        "no C compiler found (tried $CC, cc, gcc, clang)"
    )


def _build_library() -> Path:
    """Compile (or reuse) the shared library; returns its path."""
    if not _SOURCE.exists():
        raise KernelUnavailableError(f"kernel source missing: {_SOURCE}")
    cc = _compiler()
    source = _SOURCE.read_bytes()
    tag = hashlib.sha256(
        source + cc.encode() + str(ctypes.sizeof(ctypes.c_long)).encode()
    ).hexdigest()[:16]
    directory = cache_dir()
    so_path = directory / f"repro_kernels_{tag}.so"
    if so_path.exists():
        return so_path
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise KernelUnavailableError(
            f"cannot create kernel cache dir {directory}: {exc}"
        ) from None
    fd, tmp_name = tempfile.mkstemp(
        suffix=".so", prefix="repro_kernels_", dir=directory
    )
    os.close(fd)
    cmd = [cc, "-O3", "-fPIC", "-shared", "-o", tmp_name, str(_SOURCE), "-lm"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        os.unlink(tmp_name)
        raise KernelUnavailableError(f"compiling kernels failed: {exc}") from None
    if proc.returncode != 0:
        os.unlink(tmp_name)
        raise KernelUnavailableError(
            f"{cc} failed (exit {proc.returncode}): {proc.stderr[-1000:]}"
        )
    os.replace(tmp_name, so_path)
    return so_path


def _as(array: np.ndarray, dtype, ptr_type):
    """Pointer to a contiguous array of the required dtype (no copy)."""
    assert array.dtype == dtype and array.flags["C_CONTIGUOUS"]
    return array.ctypes.data_as(ptr_type)


class _CcKernels:
    """ctypes bindings presenting the kernel-interface signatures."""

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        # The Dinic kernels take the residual network's raw addresses.
        lib.repro_dinic_solve.restype = ctypes.c_double
        lib.repro_dinic_solve.argtypes = [ctypes.c_int64] + [_ptr] * 10 + [
            ctypes.c_int64, ctypes.c_int64, _i64p,
        ]
        lib.repro_residual_reachable.restype = None
        lib.repro_residual_reachable.argtypes = [ctypes.c_int64] + [_ptr] * 7 + [
            ctypes.c_int64,
        ]
        lib.repro_contract_to.restype = ctypes.c_int64
        lib.repro_contract_to.argtypes = [
            ctypes.c_int64, _i64p, _i64p, _f64p, _i64p,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _f64p, _i64p,
        ]
        lib.repro_karger_runs.restype = ctypes.c_int64
        lib.repro_karger_runs.argtypes = [
            ctypes.c_int64, _i64p, _i64p, _f64p, ctypes.c_int64, _f64p,
            ctypes.c_int64, _f64p, _u8p, _i64p, _i64p, _i64p, _f64p, _u8p,
        ]
        lib.repro_stoer_wagner.restype = ctypes.c_double
        lib.repro_stoer_wagner.argtypes = [
            ctypes.c_int64, _f64p, _f64p, _i64p, _i64p, _i64p, _u8p,
        ]
        lib.repro_had_combine_many.restype = None
        lib.repro_had_combine_many.argtypes = [
            ctypes.c_int64, _i8p, _i64p, ctypes.c_int64, _i64p, _i64p,
        ]
        lib.repro_had_row_products.restype = None
        lib.repro_had_row_products.argtypes = [
            ctypes.c_int64, _i8p, _f64p, _f64p, _f64p,
        ]
        lib.repro_had_decode_one.restype = ctypes.c_double
        lib.repro_had_decode_one.argtypes = [
            ctypes.c_int64, _i8p, _f64p, ctypes.c_int64, ctypes.c_int64,
        ]

    # -- kernel interface ----------------------------------------------
    def dinic_solve(self, net, source, sink) -> Tuple[float, int]:
        phases = ctypes.c_int64(0)
        total = self._lib.repro_dinic_solve(
            net.level.size, *net.addresses[:10], source, sink,
            ctypes.byref(phases),
        )
        return total, phases.value

    def residual_reachable(self, net, source) -> None:
        indptr, adj, head, cap, flow, _, _, stack, _, _, seen = net.addresses
        self._lib.repro_residual_reachable(
            net.level.size, indptr, adj, head, cap, flow, seen, stack, source,
        )

    def contract_to(
        self, tails, heads, weights, parent, size, target, uniforms,
    ) -> Tuple[int, int]:
        uniforms = np.ascontiguousarray(uniforms, dtype=np.float64)
        used = ctypes.c_int64(0)
        reached = self._lib.repro_contract_to(
            tails.size,
            _as(tails, np.int64, _i64p),
            _as(heads, np.int64, _i64p),
            _as(weights, np.float64, _f64p),
            _as(parent, np.int64, _i64p),
            parent.size,
            size,
            target,
            _as(uniforms, np.float64, _f64p),
            ctypes.byref(used),
        )
        return int(reached), int(used.value)

    def karger_runs(
        self, indptr, indices, weights, uniforms, compensated, values, sides,
    ) -> int:
        n = indptr.size - 1
        runs = values.size
        if sides.shape != (runs, n) or uniforms.size < runs * max(n - 2, 0):
            raise ValueError("karger_runs needs (runs, n) sides, n - 2 uniforms a run")
        w = np.empty((n, n), dtype=np.float64)
        listed = np.empty((n, n), dtype=np.uint8)
        order = np.empty((n, n), dtype=np.int64)
        lengths = np.empty(n, dtype=np.int64)
        owner = np.empty(n, dtype=np.int64)
        return self._lib.repro_karger_runs(
            n,
            _as(indptr, np.int64, _i64p),
            _as(indices, np.int64, _i64p),
            _as(weights, np.float64, _f64p),
            runs,
            _as(uniforms, np.float64, _f64p),
            int(compensated),
            _as(w, np.float64, _f64p),
            _as(listed, np.uint8, _u8p),
            _as(order, np.int64, _i64p),
            _as(lengths, np.int64, _i64p),
            _as(owner, np.int64, _i64p),
            _as(values, np.float64, _f64p),
            _as(sides, np.uint8, _u8p),
        )

    def stoer_wagner(self, weights, side) -> float:
        n = side.size
        if weights.shape != (n, n):
            raise ValueError(f"weights must be ({n}, {n}), got {weights.shape}")
        key = np.empty(n, dtype=np.float64)
        live = np.empty(n, dtype=np.int64)
        cand = np.empty(n, dtype=np.int64)
        owner = np.empty(n, dtype=np.int64)
        return float(
            self._lib.repro_stoer_wagner(
                n,
                _as(weights, np.float64, _f64p),
                _as(key, np.float64, _f64p),
                _as(live, np.int64, _i64p),
                _as(cand, np.int64, _i64p),
                _as(owner, np.int64, _i64p),
                _as(side, np.uint8, _u8p),
            )
        )

    def had_combine_many(self, h, coeff) -> np.ndarray:
        side = h.shape[0]
        coeff = np.ascontiguousarray(coeff, dtype=np.int64)
        batch = coeff.shape[0]
        tmp = np.empty(side * side, dtype=np.int64)
        out = np.empty((batch, side * side), dtype=np.int64)
        self._lib.repro_had_combine_many(
            side,
            _as(h, np.int8, _i8p),
            _as(coeff, np.int64, _i64p),
            batch,
            _as(tmp, np.int64, _i64p),
            _as(out, np.int64, _i64p),
        )
        return out

    def had_row_products(self, h, x) -> np.ndarray:
        side = h.shape[0]
        x = np.ascontiguousarray(x, dtype=np.float64)
        tmp = np.empty(side * side, dtype=np.float64)
        out = np.empty((side, side), dtype=np.float64)
        self._lib.repro_had_row_products(
            side,
            _as(h, np.int8, _i8p),
            _as(x, np.float64, _f64p),
            _as(tmp, np.float64, _f64p),
            _as(out.reshape(-1), np.float64, _f64p),
        )
        return out

    def had_decode_one(self, h, x, i, j) -> float:
        x = np.ascontiguousarray(x, dtype=np.float64)
        return float(
            self._lib.repro_had_decode_one(
                h.shape[0], _as(h, np.int8, _i8p),
                _as(x, np.float64, _f64p), i, j,
            )
        )


def load() -> KernelBackend:
    """Compile/load the C library and wrap it as a backend."""
    so_path = _build_library()
    try:
        lib = ctypes.CDLL(str(so_path))
    except OSError as exc:
        raise KernelUnavailableError(
            f"loading compiled kernels {so_path} failed: {exc}"
        ) from None
    kernels = _CcKernels(lib)
    return KernelBackend(
        name="native",
        source="cc",
        dinic_solve=kernels.dinic_solve,
        residual_reachable=kernels.residual_reachable,
        contract_to=kernels.contract_to,
        karger_runs=kernels.karger_runs,
        stoer_wagner=kernels.stoer_wagner,
        had_combine_many=kernels.had_combine_many,
        had_row_products=kernels.had_row_products,
        had_decode_one=kernels.had_decode_one,
        meta={"library": str(so_path)},
    )
