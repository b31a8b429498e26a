"""Hand-written references: the C loops of ``handwritten.c``, built with
cffi and the C backend's own flags, plus the python catalog references.

Every reference returns a float64 numpy buffer (row-major, 1-based
logical) and the number of sweeps it ran, so a compiled program's
output and sweep count can be compared with it exactly.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SOURCE = HERE / "handwritten.c"

CDEF = """
void jacobi_steps(long m, long k, double *out, double *scratch);
long jacobi_converge(long m, double tol, long cap, double *out,
                     double *scratch);
void sor(long m, long k, double omega, double *u);
void stencil_chain(long m, double *img, double *out);
void wavefront_f(long n, double *a);
void pipeline(long n, double *x);
"""


class HandWritten:
    """The hand-written C library, compiled into ``build_dir``."""

    def __init__(self, build_dir: Path):
        from cffi import FFI
        from repro.backends.native import CFLAGS, find_compiler
        from repro.program.iterate import CONVERGE_CAP

        compiler = find_compiler()
        if compiler is None:
            raise RuntimeError("no C compiler for the hand-written references")
        so_path = Path(build_dir) / "handwritten.so"
        so_path.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [compiler, *CFLAGS, "-o", str(so_path), str(SOURCE), "-lm"],
            check=True, capture_output=True, text=True,
        )
        self.ffi = FFI()
        self.ffi.cdef(CDEF)
        self.lib = self.ffi.dlopen(str(so_path))
        self.cap = CONVERGE_CAP

    def _ptr(self, buf):
        return self.ffi.from_buffer("double[]", buf)

    def run(self, name: str, params: dict):
        """``(cells, sweeps)`` of program ``name`` at ``params``."""
        lib, ptr = self.lib, self._ptr
        if name == "program_jacobi_steps":
            m, k = params["m"], params["k"]
            out, scratch = np.empty(m * m), np.empty(m * m)
            lib.jacobi_steps(m, k, ptr(out), ptr(scratch))
            return out, k
        if name == "program_jacobi":
            m = params["m"]
            out, scratch = np.empty(m * m), np.empty(m * m)
            sweeps = lib.jacobi_converge(m, params["tol"], self.cap,
                                         ptr(out), ptr(scratch))
            if sweeps < 0:
                raise RuntimeError("hand-written converge hit the sweep cap")
            return out, sweeps
        if name == "program_sor":
            m, k = params["m"], params["k"]
            out = np.empty(m * m)
            lib.sor(m, k, params["omega"], ptr(out))
            return out, k
        if name == "program_stencil_chain":
            m = params["m"]
            img, out = np.empty(m * m), np.empty((m - 2) * (m - 2))
            lib.stencil_chain(m, ptr(img), ptr(out))
            return out, 1
        if name == "wavefront_f":
            n = params["n"]
            out = np.empty(n * n)
            lib.wavefront_f(n, ptr(out))
            return out, 1
        if name == "program_pipeline":
            n = params["n"]
            out = np.empty(n)
            lib.pipeline(n, ptr(out))
            return out, 1
        if name == "program_swap":
            return swap_reference(params), 1
        raise KeyError(f"no hand-written reference for {name!r}")


def swap_reference(params: dict):
    """``PROGRAM_SWAP`` through :func:`repro.kernels.ref_swap`."""
    from repro.kernels import ref_swap

    m, n = params["m"], params["n"]
    cells = [1.0 * (10 * i + j) for i in range(1, m + 1)
             for j in range(1, n + 1)]
    return np.asarray(ref_swap(cells, m, n, params["r"], params["s"]),
                      dtype=np.float64)


def same_bits(cells, expected) -> bool:
    """Whether a result's cells equal ``expected`` bit for bit."""
    got = np.ascontiguousarray(np.asarray(cells, dtype=np.float64))
    want = np.ascontiguousarray(expected, dtype=np.float64)
    return got.shape == want.shape and np.array_equal(
        got.view(np.uint64), want.view(np.uint64))
