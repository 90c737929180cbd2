"""Native (C) kernel backend, compiled on demand through ``ctypes``.

The C source below implements the same operations as
:mod:`repro.kernel.python_backend` as tight single-pass loops over the
structure-of-arrays storage.  It ships in-tree and is compiled at import time
with the system C compiler into a *content-addressed build cache*: the shared
library file name is derived from the SHA-256 of the source text, the
compiler identity/version and the flag set, so a source or toolchain change
transparently rebuilds while repeat imports reuse the cached ``.so``.

Bit-identity contract
---------------------

Every arithmetic branch mirrors the pure-Python reference operation for
operation, in the same association order, and the build deliberately passes
``-ffp-contract=off`` so the compiler cannot fuse ``a * b + c`` into an FMA
(which would round differently).  IEEE-754 comparisons, additions,
multiplications and min/max are exactly rounded in both languages, so the
three backends produce byte-identical results; the conformance suite
(`tests/kernel/test_backend_conformance.py`) pins this per operation.

Honest fallback
---------------

Importing this module on a box without a usable C compiler raises
:class:`NativeBackendUnavailable` (an ``ImportError``): ``set_backend
("native")`` therefore fails loudly, ``auto`` keeps selecting numpy/python,
and benchmarks record the skip instead of faking native numbers.

Columns are ``array('d')`` and the liveness bitmap is ``array('b')``; the
C kernels read them in place through ``buffer_info() -> (address, length)``.
Blocks below :data:`SMALL_BLOCK` rows are delegated to the pure-Python loops,
where the ``ctypes`` call overhead would dominate.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from array import array
from itertools import compress
from pathlib import Path
from typing import List, Sequence

from repro.kernel import python_backend as _py

NAME = "native"

#: Below this many rows the pure-Python loops beat the ctypes call overhead.
SMALL_BLOCK = 16

CACHE_ENV_VAR = "REPRO_NATIVE_CACHE_DIR"

#: Flags are part of the cache key.  ``-ffp-contract=off`` is load-bearing:
#: it forbids FMA contraction, which would break bit-identity with the
#: python/numpy backends.
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

Columns = Sequence[array]
Vector = Sequence[float]


class NativeBackendUnavailable(ImportError):
    """The native backend cannot be built on this machine (no C compiler)."""


C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* which of the live rows are <= vec component-wise; returns the hit count */
i64 repro_leq_slots(const double *const *cols, i64 dims,
                    const signed char *alive, i64 n,
                    const double *vec, i64 *out) {
    i64 count = 0;
    if (dims == 3) {
        const double *c0 = cols[0], *c1 = cols[1], *c2 = cols[2];
        const double b0 = vec[0], b1 = vec[1], b2 = vec[2];
        for (i64 i = 0; i < n; i++)
            if (alive[i] && c0[i] <= b0 && c1[i] <= b1 && c2[i] <= b2)
                out[count++] = i;
        return count;
    }
    if (dims == 2) {
        const double *c0 = cols[0], *c1 = cols[1];
        const double b0 = vec[0], b1 = vec[1];
        for (i64 i = 0; i < n; i++)
            if (alive[i] && c0[i] <= b0 && c1[i] <= b1)
                out[count++] = i;
        return count;
    }
    if (dims == 1) {
        const double *c0 = cols[0];
        const double b0 = vec[0];
        for (i64 i = 0; i < n; i++)
            if (alive[i] && c0[i] <= b0)
                out[count++] = i;
        return count;
    }
    for (i64 i = 0; i < n; i++) {
        if (!alive[i]) continue;
        int ok = 1;
        for (i64 k = 0; k < dims; k++)
            if (cols[k][i] > vec[k]) { ok = 0; break; }
        if (ok) out[count++] = i;
    }
    return count;
}

i64 repro_geq_slots(const double *const *cols, i64 dims,
                    const signed char *alive, i64 n,
                    const double *vec, i64 *out) {
    i64 count = 0;
    if (dims == 3) {
        const double *c0 = cols[0], *c1 = cols[1], *c2 = cols[2];
        const double b0 = vec[0], b1 = vec[1], b2 = vec[2];
        for (i64 i = 0; i < n; i++)
            if (alive[i] && c0[i] >= b0 && c1[i] >= b1 && c2[i] >= b2)
                out[count++] = i;
        return count;
    }
    if (dims == 2) {
        const double *c0 = cols[0], *c1 = cols[1];
        const double b0 = vec[0], b1 = vec[1];
        for (i64 i = 0; i < n; i++)
            if (alive[i] && c0[i] >= b0 && c1[i] >= b1)
                out[count++] = i;
        return count;
    }
    if (dims == 1) {
        const double *c0 = cols[0];
        const double b0 = vec[0];
        for (i64 i = 0; i < n; i++)
            if (alive[i] && c0[i] >= b0)
                out[count++] = i;
        return count;
    }
    for (i64 i = 0; i < n; i++) {
        if (!alive[i]) continue;
        int ok = 1;
        for (i64 k = 0; k < dims; k++)
            if (cols[k][i] < vec[k]) { ok = 0; break; }
        if (ok) out[count++] = i;
    }
    return count;
}

/* first live row <= vec, or -1: the witness search, with early exit */
i64 repro_first_leq(const double *const *cols, i64 dims,
                    const signed char *alive, i64 n, const double *vec) {
    if (dims == 3) {
        const double *c0 = cols[0], *c1 = cols[1], *c2 = cols[2];
        const double b0 = vec[0], b1 = vec[1], b2 = vec[2];
        for (i64 i = 0; i < n; i++)
            if (alive[i] && c0[i] <= b0 && c1[i] <= b1 && c2[i] <= b2)
                return i;
        return -1;
    }
    for (i64 i = 0; i < n; i++) {
        if (!alive[i]) continue;
        int ok = 1;
        for (i64 k = 0; k < dims; k++)
            if (cols[k][i] > vec[k]) { ok = 0; break; }
        if (ok) return i;
    }
    return -1;
}

void repro_scale(const double *src, double *dst, i64 n, double factor) {
    for (i64 i = 0; i < n; i++)
        dst[i] = src[i] * factor;
}

void repro_take(const double *src, const i64 *idx, i64 count, double *dst) {
    for (i64 i = 0; i < count; i++)
        dst[i] = src[idx[i]];
}

/* op codes follow the wrapper's _COMBINE_OPS table */
int repro_combine(i64 op, const double *l, const double *r, i64 n,
                  double local, double s1, double s2, double *out) {
    i64 i;
    switch (op) {
    case 0: /* sum: (l + r) + local */
        for (i = 0; i < n; i++)
            out[i] = (l[i] + r[i]) + local;
        return 0;
    case 1: /* max(l, r, local), Python max() tie order */
        for (i = 0; i < n; i++) {
            double m = l[i];
            if (r[i] > m) m = r[i];
            if (local > m) m = local;
            out[i] = m;
        }
        return 0;
    case 2: /* pipeline_max: max(l, r) + local */
        for (i = 0; i < n; i++) {
            double m = l[i];
            if (r[i] > m) m = r[i];
            out[i] = m + local;
        }
        return 0;
    case 3: /* min: min(l, r) + local */
        for (i = 0; i < n; i++) {
            double m = l[i];
            if (r[i] < m) m = r[i];
            out[i] = m + local;
        }
        return 0;
    case 4: /* scaled_sum: (s1*l + s2*r) + local */
        for (i = 0; i < n; i++)
            out[i] = (s1 * l[i] + s2 * r[i]) + local;
        return 0;
    case 5: { /* precision_loss: inclusion-exclusion, clamped to [0, 1] */
        const double x = 1.0 < local ? 1.0 : local;
        for (i = 0; i < n; i++) {
            const double lc = 1.0 < l[i] ? 1.0 : l[i];
            const double rc = 1.0 < r[i] ? 1.0 : r[i];
            double loss =
                lc + rc + x - lc * rc - lc * x - rc * x + lc * rc * x;
            loss = loss > 0.0 ? loss : 0.0;
            out[i] = loss < 1.0 ? loss : 1.0;
        }
        return 0;
    }
    }
    return -1;
}

/* Monotonic map from IEEE-754 doubles to unsigned 64-bit integers: for any
   finite or infinite a, b it holds that a < b iff sort_key(a) < sort_key(b).
   Negative values flip all bits, non-negative ones flip the sign bit. */
static inline uint64_t sort_key(double x) {
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    if (bits == 0x8000000000000000ULL) bits = 0; /* -0.0 orders as +0.0 */
    return (bits & 0x8000000000000000ULL) ? ~bits
                                          : (bits | 0x8000000000000000ULL);
}

/* LSB-first byte radix sort of (key, idx) pairs; counting passes are stable,
   so equal keys keep their original (slot) order.  Passes whose byte is
   constant across all keys are skipped.  Returns 1 when the sorted result
   ended up in the tmp buffers, 0 when it sits in keys/idx. */
static int radix_sort_pairs(uint64_t *keys, i64 *idx,
                            uint64_t *tmp_keys, i64 *tmp_idx, i64 m) {
    i64 count[256];
    int flipped = 0;
    for (int shift = 0; shift < 64; shift += 8) {
        memset(count, 0, sizeof count);
        for (i64 i = 0; i < m; i++)
            count[(keys[i] >> shift) & 0xFF]++;
        if (count[(keys[0] >> shift) & 0xFF] == m) continue;
        i64 pos = 0;
        for (int b = 0; b < 256; b++) {
            const i64 c = count[b];
            count[b] = pos;
            pos += c;
        }
        for (i64 i = 0; i < m; i++) {
            const uint64_t k = keys[i];
            const i64 p = count[(k >> shift) & 0xFF]++;
            tmp_keys[p] = k;
            tmp_idx[p] = idx[i];
        }
        uint64_t *sk = keys; keys = tmp_keys; tmp_keys = sk;
        i64 *si = idx; idx = tmp_idx; tmp_idx = si;
        flipped = !flipped;
    }
    return flipped;
}

/* lexicographic order on the secondary dimensions (the radix sort already
   settled dimension 0), original gather position as the final tie-breaker */
static int lex_less_rest(const double *rows, i64 dims, i64 a, i64 b) {
    const double *ra = rows + a * dims, *rb = rows + b * dims;
    for (i64 k = 1; k < dims; k++) {
        if (ra[k] < rb[k]) return 1;
        if (ra[k] > rb[k]) return 0;
    }
    return a < b;
}

/* stable merge sort for the (typically tiny) runs of equal primary keys */
static void merge_sort_rest(i64 *idx, i64 *tmp, i64 n,
                            const double *rows, i64 dims) {
    if (n < 2) return;
    i64 mid = n / 2;
    merge_sort_rest(idx, tmp, mid, rows, dims);
    merge_sort_rest(idx + mid, tmp, n - mid, rows, dims);
    i64 i = 0, j = mid, k = 0;
    while (i < mid && j < n)
        tmp[k++] = lex_less_rest(rows, dims, idx[j], idx[i])
                       ? idx[j++] : idx[i++];
    while (i < mid) tmp[k++] = idx[i++];
    while (j < n) tmp[k++] = idx[j++];
    memcpy(idx, tmp, (size_t)n * sizeof(i64));
}

/* strict-dominance frontier mask: lexicographic sort + frontier sweep,
   identical semantics to the pure-Python reference.  The live rows are
   gathered row-major (cache-friendly compares), sorted by a byte-radix pass
   on dimension 0 with comparison sorting only inside equal-key runs, and
   swept against a contiguous frontier. */
int repro_pareto_mask(const double *const *cols, i64 dims,
                      const signed char *alive, i64 n, signed char *keep) {
    memset(keep, 0, (size_t)n);
    i64 m = 0;
    i64 *slots = malloc((size_t)n * sizeof(i64));
    if (slots == NULL) return -1;
    for (i64 i = 0; i < n; i++)
        if (alive[i]) slots[m++] = i;
    if (m == 0) {
        free(slots);
        return 0;
    }
    double *rows = malloc((size_t)m * (size_t)dims * sizeof(double));
    double *front = malloc((size_t)m * (size_t)dims * sizeof(double));
    uint64_t *keys = malloc((size_t)m * 2 * sizeof(uint64_t));
    i64 *idx = malloc((size_t)m * 2 * sizeof(i64));
    if (rows == NULL || front == NULL || keys == NULL || idx == NULL) {
        free(slots); free(rows); free(front); free(keys); free(idx);
        return -1;
    }
    for (i64 r = 0; r < m; r++) {
        for (i64 k = 0; k < dims; k++)
            rows[r * dims + k] = cols[k][slots[r]];
        keys[r] = sort_key(rows[r * dims]);
        idx[r] = r;
    }
    uint64_t *skeys = keys;
    i64 *sidx = idx;
    if (radix_sort_pairs(keys, idx, keys + m, idx + m, m)) {
        skeys = keys + m;
        sidx = idx + m;
    }
    if (dims > 1) {
        /* whichever idx half the radix result does NOT occupy is free */
        i64 *scratch = (sidx == idx) ? idx + m : idx;
        i64 start = 0;
        while (start < m) {
            i64 end = start + 1;
            while (end < m && skeys[end] == skeys[start]) end++;
            if (end - start > 1)
                merge_sort_rest(sidx + start, scratch, end - start, rows, dims);
            start = end;
        }
    }
    i64 fcount = 0;
    for (i64 p = 0; p < m; p++) {
        const double *row = rows + sidx[p] * dims;
        int dominated = 0;
        for (i64 f = 0; f < fcount; f++) {
            const double *fr = front + f * dims;
            int ok = 1;
            for (i64 k = 0; k < dims; k++)
                if (fr[k] > row[k]) { ok = 0; break; }
            if (ok) { dominated = 1; break; }
        }
        if (!dominated) {
            memcpy(front + fcount * dims, row, (size_t)dims * sizeof(double));
            keep[slots[sidx[p]]] = 1;
            fcount++;
        }
    }
    free(slots); free(rows); free(front); free(keys); free(idx);
    return 0;
}
"""


# ----------------------------------------------------------------------
# Build: system compiler -> content-addressed cache -> ctypes
# ----------------------------------------------------------------------
def find_compiler() -> str:
    """Path of the first usable C compiler, or raise NativeBackendUnavailable.

    ``$CC`` wins when set; otherwise ``cc``/``gcc``/``clang`` are probed on
    ``$PATH``.
    """
    candidates = []
    env_cc = os.environ.get("CC", "").strip()
    if env_cc:
        candidates.append(env_cc)
    candidates.extend(("cc", "gcc", "clang"))
    for candidate in candidates:
        found = shutil.which(candidate)
        if found:
            return found
    raise NativeBackendUnavailable(
        "native kernel backend unavailable: no C compiler found "
        f"(tried {', '.join(candidates)}); install one (e.g. gcc) or select "
        "the numpy/python backend via REPRO_KERNEL_BACKEND"
    )


def _compiler_version(compiler: str) -> str:
    try:
        proc = subprocess.run(
            [compiler, "--version"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        return (proc.stdout or proc.stderr).splitlines()[0].strip()
    except (OSError, subprocess.SubprocessError, IndexError):
        return "unknown"


def cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV_VAR, "").strip()
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-native"


def build_key(compiler: str, version: str) -> str:
    """Content address of the build: source x compiler x flags."""
    digest = hashlib.sha256()
    digest.update(C_SOURCE.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(compiler.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(version.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(" ".join(CFLAGS).encode("utf-8"))
    return digest.hexdigest()[:24]


def build_library() -> Path:
    """Compile (or reuse) the shared library; returns its cache path."""
    compiler = find_compiler()
    version = _compiler_version(compiler)
    directory = cache_dir()
    library = directory / f"repro_kernel_{build_key(compiler, version)}.so"
    if library.exists():
        return library
    directory.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=str(directory)) as workdir:
        source = Path(workdir) / "repro_kernel.c"
        source.write_text(C_SOURCE)
        output = Path(workdir) / library.name
        command = [compiler, *CFLAGS, "-o", str(output), str(source)]
        proc = subprocess.run(command, capture_output=True, text=True)
        if proc.returncode != 0:
            raise NativeBackendUnavailable(
                "native kernel backend failed to compile with "
                f"{compiler!r} ({version}):\n{proc.stderr.strip()}"
            )
        # Atomic publish: concurrent builders race benignly to the same key.
        os.replace(output, library)
    return library


def _load() -> ctypes.CDLL:
    # Every pointer parameter is declared ``c_void_p`` so the wrappers can
    # pass raw buffer addresses (plain ints from ``buffer_info()``) without
    # constructing ctypes pointer objects per call -- the per-call
    # marshalling cost is what decides whether a 4096-row block beats numpy.
    lib = ctypes.CDLL(str(build_library()))
    i64 = ctypes.c_int64
    p = ctypes.c_void_p
    lib.repro_leq_slots.argtypes = [p, i64, p, i64, p, p]
    lib.repro_leq_slots.restype = i64
    lib.repro_geq_slots.argtypes = [p, i64, p, i64, p, p]
    lib.repro_geq_slots.restype = i64
    lib.repro_first_leq.argtypes = [p, i64, p, i64, p]
    lib.repro_first_leq.restype = i64
    lib.repro_scale.argtypes = [p, p, i64, ctypes.c_double]
    lib.repro_scale.restype = None
    lib.repro_take.argtypes = [p, p, i64, p]
    lib.repro_take.restype = None
    lib.repro_combine.argtypes = [
        i64, p, p, i64,
        ctypes.c_double, ctypes.c_double, ctypes.c_double, p,
    ]
    lib.repro_combine.restype = ctypes.c_int
    lib.repro_pareto_mask.argtypes = [p, i64, p, i64, p]
    lib.repro_pareto_mask.restype = ctypes.c_int
    return lib


_LIB = _load()

#: Identity recorded by benchmarks next to native rows.
COMPILER = find_compiler()
COMPILER_VERSION = _compiler_version(COMPILER)


# ----------------------------------------------------------------------
# ctypes marshalling
#
# Columns and the liveness bitmap are passed as raw buffer addresses
# (``buffer_info()[0]`` ints into ``c_void_p`` parameters): no per-call
# ctypes pointer objects.  The column-address table and the bounds vector
# travel through small scratch ``array``s; the temporaries stay referenced
# by locals for the duration of the call, so the addresses remain valid.
# ----------------------------------------------------------------------
def _addr(col) -> int:
    """Buffer address of an ``array`` column."""
    return col.buffer_info()[0]


def _col_addrs(columns: Columns) -> array:
    return array("Q", [col.buffer_info()[0] for col in columns])


def _vec(vector: Vector) -> array:
    if isinstance(vector, array) and vector.typecode == "d":
        return vector
    return array("d", vector)


class _Scratch(threading.local):
    """Per-thread, grow-only output buffer for the slot-list operations."""

    def __init__(self):
        self.capacity = 0
        self.buffer = None
        self.address = 0

    def out(self, size: int) -> int:
        if size > self.capacity:
            capacity = max(256, size * 2)
            self.buffer = array("q", bytes(8 * capacity))
            self.capacity = capacity
            self.address = self.buffer.buffer_info()[0]
        return self.address


_scratch = _Scratch()


def _slots_list(address: int, count: int) -> List[int]:
    # One C memcpy into a fresh array('q'), then its C-level tolist: ~4x
    # faster than per-item ctypes getitem, same plain List[int] contract.
    if count == 0:
        return []
    out = array("q")
    out.frombytes(ctypes.string_at(address, count * 8))
    return out.tolist()


# ----------------------------------------------------------------------
# Kernel operations
# ----------------------------------------------------------------------
def leq_slots(columns: Columns, alive: array, vector: Vector) -> List[int]:
    """Slots of live rows ``r`` with ``r <= vector`` component-wise."""
    n = len(alive)
    if n < SMALL_BLOCK:
        return _py.leq_slots(columns, alive, vector)
    addrs = _col_addrs(columns)
    vec = _vec(vector)
    out = _scratch.out(n)
    count = _LIB.repro_leq_slots(
        addrs.buffer_info()[0], len(columns), _addr(alive), n,
        vec.buffer_info()[0], out,
    )
    return _slots_list(out, count)


def geq_slots(columns: Columns, alive: array, vector: Vector) -> List[int]:
    """Slots of live rows ``r`` with ``r >= vector`` component-wise."""
    n = len(alive)
    if n < SMALL_BLOCK:
        return _py.geq_slots(columns, alive, vector)
    addrs = _col_addrs(columns)
    vec = _vec(vector)
    out = _scratch.out(n)
    count = _LIB.repro_geq_slots(
        addrs.buffer_info()[0], len(columns), _addr(alive), n,
        vec.buffer_info()[0], out,
    )
    return _slots_list(out, count)


def first_leq(columns: Columns, alive: array, vector: Vector) -> int:
    """Slot of the first live row ``<= vector`` component-wise, or ``-1``.

    This is the witness search of Algorithm 3 line 7 -- the hottest kernel
    call of the optimizer.  The C loop exits at the first hit, which the
    numpy backend fundamentally cannot (it always materializes the full
    mask); this op is where the native tier earns its keep.
    """
    n = len(alive)
    if n < SMALL_BLOCK:
        return _py.first_leq(columns, alive, vector)
    addrs = _col_addrs(columns)
    vec = _vec(vector)
    return _LIB.repro_first_leq(
        addrs.buffer_info()[0], len(columns), _addr(alive), n,
        vec.buffer_info()[0],
    )


def any_leq(columns: Columns, alive: array, vector: Vector) -> bool:
    """Whether some live row is ``<= vector`` component-wise."""
    return first_leq(columns, alive, vector) != -1


#: The cached-witness check has no C loop: it delegates to pure Python until
#: the fresh-plan witness searches are batched too and decide whether the
#: native tier pays at all.
rowwise_leq = _py.rowwise_leq


def _fresh_column(size: int) -> array:
    return array("d", bytes(8 * size))


def scale_columns(columns: Columns, factor: float) -> List[array]:
    """Multiply every column by a non-negative scalar; returns new columns."""
    scaled: List[array] = []
    for col in columns:
        n = len(col)
        if n < SMALL_BLOCK:
            scaled.append(array("d", (value * factor for value in col)))
            continue
        out = _fresh_column(n)
        _LIB.repro_scale(_addr(col), out.buffer_info()[0], n, factor)
        scaled.append(out)
    return scaled


def take(columns: Columns, indices: Sequence[int]) -> List[array]:
    """Gather the rows at ``indices`` from every column; returns new columns."""
    count = len(indices)
    if count < SMALL_BLOCK:
        return _py.take(columns, indices)
    if isinstance(indices, array) and indices.typecode == "q":
        idx = indices
    else:
        idx = array("q", indices)
    gathered: List[array] = []
    for col in columns:
        out = _fresh_column(count)
        _LIB.repro_take(
            _addr(col), idx.buffer_info()[0], count, out.buffer_info()[0]
        )
        gathered.append(out)
    return gathered


#: Aggregation-spec opcodes of ``repro_combine``.
_COMBINE_OPS = {
    "sum": 0,
    "max": 1,
    "pipeline_max": 2,
    "min": 3,
    "scaled_sum": 4,
    "precision_loss": 5,
}


def combine_columns(
    spec: Sequence, left: Sequence[float], right: Sequence[float], local: float
) -> array:
    """Aggregate two equally long metric columns with a scalar local cost.

    Same formulas, same association order as the python/numpy backends --
    and ``-ffp-contract=off`` keeps the compiler from fusing the products,
    so the results are bit-identical.
    """
    n = len(left)
    if n < SMALL_BLOCK:
        return _py.combine_columns(spec, left, right, local)
    op = _COMBINE_OPS.get(spec[0])
    if op is None:
        raise ValueError(f"unknown aggregation spec {spec!r}")
    scale_left = float(spec[1]) if op == 4 else 0.0
    scale_right = float(spec[2]) if op == 4 else 0.0
    left_arr = left if isinstance(left, array) else array("d", left)
    right_arr = right if isinstance(right, array) else array("d", right)
    out = _fresh_column(n)
    status = _LIB.repro_combine(
        op,
        _addr(left_arr),
        _addr(right_arr),
        n,
        local,
        scale_left,
        scale_right,
        out.buffer_info()[0],
    )
    if status != 0:
        raise ValueError(f"unknown aggregation spec {spec!r}")
    return out


def pareto_mask(columns: Columns, alive: array) -> List[bool]:
    """Per-live-row strict-dominance frontier mask, in slot order."""
    n = len(alive)
    if n < SMALL_BLOCK:
        return _py.pareto_mask(columns, alive)
    addrs = _col_addrs(columns)
    keep = array("b", bytes(n))
    status = _LIB.repro_pareto_mask(
        addrs.buffer_info()[0], len(columns), _addr(alive), n,
        keep.buffer_info()[0],
    )
    if status != 0:  # pragma: no cover - malloc failure
        raise MemoryError("native pareto_mask: scratch allocation failed")
    # memoryview.cast("?") boxes the mask to bools in C; compress drops the
    # tombstoned slots without a per-slot Python loop.
    bools = memoryview(keep).cast("?").tolist()
    if isinstance(alive, array):
        return list(compress(bools, alive.tolist()))
    return list(compress(bools, alive))
