"""Hot numeric kernels: polar transform, SC decoding, GF(2) weight spectra."""

from __future__ import annotations

import functools

import numpy as np

from . import _gf2

# the only kernel implementation; recorded with benchmark results
BACKEND = "numpy"

LLR_CLAMP = 40.0


# ----------------------------------------------------------------- transform

def polar_transform(u: np.ndarray) -> np.ndarray:
    """Bit transform for encoding; involutive, accepts (..., N) bit arrays.

    Multiplies bit rows by the n-fold Kronecker power of [[1,0],[1,1]], as
    log2(N) butterfly stages on a node-major (N, ...) copy: each stage XORs
    whole contiguous row blocks.  Returns a (..., N) view of that copy, so a
    node-major (B, N) batch (a view whose transpose is C-contiguous) is
    copied as it lies in memory and comes back node-major.
    """
    x = np.array(np.moveaxis(u, -1, 0), dtype=np.uint8, order="C", copy=True)
    N = x.shape[0]
    d = 1
    while d < N:
        w = x.reshape(N // (2 * d), 2, d, x.size // N)
        w[:, 0] ^= w[:, 1]
        d <<= 1
    return np.moveaxis(x, 0, -1)


# ------------------------------------------------------------------ f and g

# elements per numpy call of f and g on a large node: a tile's operands and
# the scratch (about 0.5 MB) stay in cache, and no node allocates temporaries
_TILE = 1 << 14
# shifts a uint8 sign bit into a uint64 mask: numpy 2's promotion (NEP 50)
# picks the uint64 loop, hence the numpy >= 2.0 floor
_U63 = np.uint64(63)
# _RATE1_GUARD[l]: t_l, the exact rule's Rate-1 guard at tree level l <= 14
# (see the comment above sc_decode_batch's plan), t_0 = 0
_RATE1_GUARD = (
    0.0, 1.37e-6, 1.68e-3, 0.0586, 0.35, 0.896, 1.57, 2.28,
    3.01, 3.74, 4.48, 5.23, 5.99, 6.75, 7.52,
)


def _scratch(width: int):
    """Scratch for f and g over tiles of up to ``width`` elements: |a| and |b|
    (then the sign mask), the two correction terms of the exact rule, the
    signs a < 0 and b < 0, and their XOR.  The pairs are flat, so that a
    tile takes a contiguous (2, m) block of each."""
    width = max(1, width)
    return (
        np.empty(2 * width),
        np.empty(2 * width),
        np.empty(2 * width, dtype=bool),
        np.empty(width, dtype=bool),
    )


def _tiles(ab, out, scratch):
    """The views that f and g of a (2, h, B) float64 array ``ab`` (a node's
    halves a and b) into the contiguous (h, B) float64 ``out`` work on, cut
    in tiles of as many whole rows as the ``scratch`` width holds (at least
    one): ``(f_tiles, g_tiles)``, each tile beginning with its part of
    ``out``.  Built once per call and level, so a node slices nothing."""
    mags, corr, neg, flip = scratch
    h, B = out.shape
    step = max(1, flip.shape[0] // max(B, 1))
    abf = ab.reshape(2, -1)
    outf = out.reshape(-1)
    f_tiles, g_tiles = [], []
    for i in range(0, h, step):
        i1 = min(i + step, h)
        j, k = i * B, i1 * B
        o = outf[j:k]
        # contiguous blocks: numpy 2.4's negative reads the second row of a
        # (2, 1) view of wider rows from the wrong address
        A = mags[: 2 * (k - j)].reshape(2, k - j)
        mask = A[0].view(np.uint64)
        S = neg[: 2 * (k - j)].reshape(2, k - j)
        F = flip[: k - j]
        c = corr[: 2 * (k - j)].reshape(2, k - j)
        f_tiles.append(
            (o, o.view(np.uint64), abf[:, j:k], A, *A, mask, S, *S, F, F.view(np.uint8), c, *c)
        )
        o = out[i:i1]
        g_tiles.append(
            (o, o.view(np.uint64), ab[0, i:i1].view(np.uint64), ab[1, i:i1],
             mask.reshape(i1 - i, B), i, i1)
        )
    return f_tiles, g_tiles


def _f(tiles, minsum):
    """Check-node rule f(a, b) over ``_tiles(ab, out, scratch)[0]``.

    The output's sign is flipped where exactly one input is < 0 (strictly:
    -0.0 counts as non-negative).  Its magnitude is min(|a|, |b|) under
    min-sum, and otherwise the overflow-safe magnitude of the exact rule,
    min + log1p(exp(-(|a|+|b|))) - log1p(exp(-||a|-|b||)) in that order,
    clamped at zero: the clamp keeps the sign exactly multiplicative, as the
    tanh form would be.  The bits are those of the magnitude times the sign
    as +-1.0.
    """
    for o, ov, v, A, aa, ab, mask, S, sa, sb, F, F8, c, c0, c1 in tiles:
        np.abs(v, out=A)
        np.less(v, 0.0, out=S)
        np.not_equal(sa, sb, out=F)
        np.minimum(aa, ab, out=o)
        if not minsum:
            # c = -(|a|+|b|), -||a|-|b||: one exp and one log1p for both
            np.add(aa, ab, out=c0)
            np.subtract(aa, ab, out=c1)
            np.abs(c1, out=c1)
            np.negative(c, out=c)
            np.exp(c, out=c)
            np.log1p(c, out=c)
            o += c0
            o -= c1
            np.maximum(o, 0.0, out=o)
        np.left_shift(F8, _U63, out=mask)
        np.bitwise_xor(ov, mask, out=ov)


def _g(tiles, bits):
    """Bit-node rule g = (1.0 - 2.0*bits) * a + b over
    ``_tiles(ab, out, scratch)[1]``, for the (h, B) 0/1 uint8 ``bits`` (the
    left child's codeword): a sign-bit flip of a and one addition."""
    for o, ov, au, b, mask, i, i1 in tiles:
        np.left_shift(bits[i:i1], _U63, out=mask)
        np.bitwise_xor(au, mask, out=ov)
        o += b


# ------------------------------------------------------------- SC decoding
#
# Successive cancellation in natural bit order on (size, B) node arrays: the
# node at tree level ``level`` starting at u-index ``start`` gets the LLRs for
# u-indices [start, start + 2^level) of all B frames and writes its
# sub-codeword into the same rows of the call's zeroed (N, B) codeword array
# X; a node that splits XORs its right half into its left.  Three subtree
# kinds are decoded without walking their leaves, all with decisions
# identical to plain SC:
#
# - Rate-0 (no information bit): every decision is 0, no LLR is needed, and
#   the node's rows of X stay zero.
# - Rep (one information bit, the last leaf): every left sibling on the path
#   to that leaf is Rate-0, so each g step is (1.0 - 2.0*0)*a + b = a + b;
#   folding the halves with + reproduces SC's additions exactly.  The leaf's
#   decision is the whole sub-codeword.
# - Rate-1 (no frozen bit) at tree level l, when every node LLR of every
#   frame has magnitude above t_l = _RATE1_GUARD[l] under the exact rule, or
#   above 0 under min-sum: SC's codeword is then the hard decision
#   x = (v < 0).  Proof, for finite LLRs: take f of inputs a, b of
#   magnitudes m = min(|a|, |b|) <= M, with m above the guard.  Its sign is
#   the product of the input signs (strict a < 0, b < 0).  Min-sum's
#   magnitude is m.  The exact rule's is r = fl(fl(m + L0) - L1), with L0
#   and L1 the computed log1p(exp(-(M+m))) and log1p(exp(-(M-m))), both
#   within [0, ln 2] up to rounding.  Exactly, m + L0 - L1 is
#   2 atanh(tanh(m/2) tanh(M/2)) >= F(m) = 2 atanh(tanh^2(m/2)).  The two
#   roundings each err by at most u(m + 1), u = 2^-53, and exp and log1p,
#   with the rounding of their arguments, by a few u on any SIMD target, so
#   r >= F(m) - d(m) with d(m) = 2u(m + 1) + 2^13 u.  F' = tanh > 2u above
#   t_1, so F - d grows with m there.  t_l, from t_0 = 0, is 1% above the
#   least m with F(m) - d(m) >= t_(l-1) (tests/test_scdec.py recomputes
#   each at 50 digits), so every f output is above t_(l-1): the left child,
#   one level down, meets its guard, and (by induction; a leaf decides
#   (v < 0)) decides x_left = (a < 0) ^ (b < 0).  g then adds two values of
#   b's sign, of magnitude at least |b|, so the right child decides
#   (b < 0), and the node's codeword (x_left ^ x_right, x_right) is
#   (a < 0, b < 0).  t_l grows by about ln 2 per level, the most f takes
#   off m, but far less at low levels: t_1 is 1.37e-6.  Above level 14,
#   the library's length bound, the exact rule's guard is infinite.  The
#   guard reads the whole batch, so a node with one weak frame is split for
#   every frame.  The rounding it guards against is real: the exact rule
#   decides the all-information row (1e-9, 1e-9, 1e-9, -1e-9) as
#   (0, 0, 0, 0), and the guard splits it (t_2 is 1.68e-3).
#
# Below a node that splits, a Rate-0 left child is not visited and f is not
# computed for it: the child needs no LLR, and g is then a + b.  Signs are
# applied by flipping the float64 sign bit, which gives the same bits as the
# products with +-1.0 of the textbook f and g, +-0.0 included.
#
# The walk depends on the frozen mask alone, so it is compiled once per mask
# into a flat plan of steps ``(kind, level, start, mid, end, after)``, in
# decoding order.  A Rate-0 node compiles to no step.  The kinds:
#
# - "rep": a Rep node, folded down to its leaf;
# - "rate1": a Rate-1 candidate, whose guard is read at run time: when it
#   holds, the node is decided by hard decision and the run goes on at step
#   ``after``, past the node's subtree; otherwise it goes on into the
#   subtree, the node's f first;
# - "f" into the left child's rows, "add" (a + b into the right child's rows
#   under a Rate-0 left child), "g" into the right child's rows once the
#   left child is decided, and "xor", the combine after the right child;
# - "keep": a copy of the node's input into rows [start, end) of the
#   level's kept array, for a call that keeps node inputs.
#
# Kept node inputs.  A call can keep the input of every node it computes at
# the tree levels it is asked for: the LLRs that plain SC feeds the node, as
# the node is entered.  A level's kept array holds one block of 2^level rows
# per node of that level with an information bit, in order of the node's
# u-index: the j-th such node's input is rows [j 2^level, (j+1) 2^level).
# That input is written by f (left child), g or add (right child) at the
# level above, by the root (level n), and inside a Rep subtree by its fold,
# so a plan that keeps a level below a Rep node walks that node as splits
# of a Rate-0 left child ("add", then the right child, then "xor"): the same
# additions and the same codeword.  Two kinds of node get no kept input:
# Rate-0 nodes, which the plan never visits and the array has no rows for,
# and nodes below a Rate-1 node whose guard held, whose subtree the run
# skips and whose rows stay as the caller gave them.  Both decode alike
# whatever their bit order: a Rate-0 node to zeros, and a node below a
# guarded Rate-1 node to the hard decision of its true input, whose
# magnitudes all clear the node's own guard (the induction of the proof
# above); all-zero rows decode to zeros.  Kept inputs are the kernel's own
# LLRs, so they are never clamped.  A plan that keeps no level has no
# "keep" step and is the plan above.


@functools.lru_cache
def _plan(frozen: bytes, keep: tuple = ()) -> tuple:
    """The flat step list of the pruned SC tree of a frozen mask, given as
    the bytes of a bool array, that keeps the node inputs of the levels in
    ``keep`` (see the comment above)."""
    # info_before[i]: number of information bits among u-indices [0, i)
    info_before = [0]
    for f in frozen:
        info_before.append(info_before[-1] + (not f))
    steps = []
    # the nodes each kept level has had so far
    kept = dict.fromkeys(keep, 0)
    _compile(len(frozen).bit_length() - 1, 0, frozen, info_before, kept, steps)
    return tuple(steps)


def _compile(level, start, frozen, info_before, kept, steps):
    """Append the steps of the node (level, start) to ``steps``, counting
    the nodes of each kept level in ``kept``: a plain function, so that
    compiling leaves no reference cycle."""
    size = 1 << level
    end = start + size
    mid = start + size // 2
    info = info_before[end] - info_before[start]
    if info == 0:
        return
    if level in kept:
        row = kept[level] * size
        kept[level] += 1
        steps.append(("keep", level, row, row, row + size, 0))
    if info == 1 and not frozen[end - 1] and not any(lv < level for lv in kept):
        steps.append(("rep", level, start, mid, end, 0))
        return
    rate1 = info == size
    if rate1:
        at = len(steps)
        steps.append(None)
    if info_before[mid] == info_before[start]:
        steps.append(("add", level, start, mid, end, 0))
    else:
        steps.append(("f", level, start, mid, end, 0))
        _compile(level - 1, start, frozen, info_before, kept, steps)
        steps.append(("g", level, start, mid, end, 0))
    _compile(level - 1, mid, frozen, info_before, kept, steps)
    steps.append(("xor", level, start, mid, end, 0))
    if rate1:
        steps[at] = ("rate1", level, start, mid, end, len(steps))


# LLRs (N times rows) per SC kernel call: it sizes channel.run_fer's default
# FER batch, and an AE call (scdec) gets 3 * _SC_CALL_LLRS LLRs for its
# gathered branches and the kernel's workspace.  The kernel reads node-major
# input in place and works in N level rows below the root plus one tile of
# scratch, so a call holds 2 * N * rows LLRs, and more rows per call cost
# peak memory.  sc_decode_batch keeps the workspace of a call of up to
# max(_SC_MIN_ROWS, 3 * _SC_CALL_LLRS // (2 * N)) rows for the next call:
# the AE call budget, and every default FER batch
_SC_CALL_LLRS = 1 << 16
# the fewest frames of a default FER batch (see _batch_rows)
_SC_MIN_ROWS = 256


def _batch_rows(N: int) -> int:
    """Frames of a default FER batch, channel.run_fer's, and the most an
    absorption probe call decodes: max(_SC_MIN_ROWS, _SC_CALL_LLRS // N)."""
    return max(_SC_MIN_ROWS, _SC_CALL_LLRS // N)


def _kept_rows(N: int) -> int:
    """The most rows of a call on N-LLR rows that keeps its workspace."""
    return max(_SC_MIN_ROWS, 3 * _SC_CALL_LLRS // (2 * N))


def _scratch_width(N: int, B: int) -> int:
    """Elements per operand of the f/g scratch of an (N, B) call: as many
    whole rows as fit in ``_TILE`` elements, at most N/2, at least one."""
    return max(1, min(N // 2, _TILE // max(B, 1))) * B


def _rows_within(size: int, N: int, B: int) -> int:
    """A row count r such that every call of at most r rows of ``size``
    LLRs, size <= N, fits the workspace an (N, B) call leaves and keeps it:
    no more level-row LLRs and no wider a scratch.  A call of r' rows needs
    a scratch of at most max(1, size/2) rows of r' elements."""
    width = _scratch_width(N, B)
    return max(1, min(N * B // size, _kept_rows(size), 2 * width // max(2, size)))


# The workspace a finished call keeps for the next one, under the key None.
# A call pops it, so that a call made meanwhile, from another thread,
# allocates its own, and puts it back when it returns, if the call's rows fit
# the AE call budget or a default FER batch (see sc_decode_batch).
_RETAINED = {}


class _Workspace:
    """LLR memory for calls below the root: ``llrs``, a flat buffer that
    holds an (N, B) call's level rows in its first N * B entries, and
    ``scratch``, the f/g scratch (see ``_scratch``); each grows when a call
    needs more.  ``views`` maps a call shape
    (N, B) to the per-level views over both, for the shape of the last call
    (``shape``) and the one before it, so that calls of two alternating
    shapes rebuild none."""

    __slots__ = ("llrs", "scratch", "shape", "views")

    def __init__(self):
        self.llrs = np.empty(0)
        self.scratch = _scratch(0)
        self.shape = None
        self.views = {}

    def level_views(self, N: int, B: int, width: int):
        """``(rows, halves, tiles, scratch)`` of an (N, B) call whose f/g
        scratch is ``width`` wide: per tree level l < n, its node rows, and
        for 0 < l < n the halves a and b with the child level's rows, and
        the tiles of f and g over them.  Entry n (the root's) is left for
        the call to fill and clear."""
        views = self.views.get((N, B))
        if views is None:
            if self.llrs.size < N * B or self.scratch[3].size < width:
                # old views and buffers are released before larger ones are made
                self.views = {}
                if self.llrs.size < N * B:
                    self.llrs = None
                    self.llrs = np.empty(N * B)
                if self.scratch[3].size < width:
                    self.scratch = None
                    self.scratch = _scratch(width)
            n = N.bit_length() - 1
            L = self.llrs[: N * B].reshape(N, B)
            mags, corr, neg, flip = self.scratch
            scratch = (mags[: 2 * width], corr[: 2 * width], neg[: 2 * width], flip[:width])
            rows = [L[1 << lv : 2 << lv] for lv in range(n)] + [None]
            halves, tiles = [None] * (n + 1), [None] * (n + 1)
            for lv in range(1, n):
                ab = rows[lv].reshape(2, 1 << (lv - 1), B)
                halves[lv] = (ab[0], ab[1], rows[lv - 1])
                tiles[lv] = _tiles(ab, rows[lv - 1], scratch)
            views = (rows, halves, tiles, scratch)
            self.views = {k: v for k, v in self.views.items() if k == self.shape}
            self.views[N, B] = views
        self.shape = (N, B)
        return views


def sc_decode_batch(llrs: np.ndarray, frozen: np.ndarray, minsum: bool = False, keep=None):
    """Decode a batch of LLR rows.

    Parameters
    ----------
    llrs : (B, N) float array of finite channel LLRs (positive favours
        bit 0).
    frozen : (N,) uint8 mask, 1 on frozen u-positions; N must be a power
        of two, or the call raises ValueError.
    minsum : replace the exact check-node rule by min-sum.
    keep : optional dict from tree levels l to float64 arrays of shape
        (2^l m, B), m the number of level-l nodes with an information bit.
        The call writes the input of every node it computes at such a level
        to the node's rows of that level's array, and leaves the rows of
        nodes below a Rate-1 node whose guard held as they are (see "Kept
        node inputs" above).

    The call runs the cached plan of ``frozen`` and the kept levels (see the
    comment above) in one loop.  The root's rows are the (N, B) node-major
    input ``llrs.T``, which the call only reads: a node-major batch (a
    (B, N) view whose transpose is C-contiguous) is read in place, any other
    is copied.  Below the root the call works in one workspace (the
    per-layer arrays of Tal & Vardy's SC decoder): (N, B) level rows whose
    rows [2^l, 2^(l+1)) hold the node being decoded at level l < n, which f
    and g write in place, and a scratch of whole rows, at most ``_TILE``
    elements per operand (or one row), over which f and g run tile by tile
    on larger nodes.  Its decisions go into a fresh (N, B) uint8 codeword
    array, written in place.
    f and g apply their signs by flipping the float64 sign bit, with the same
    bits as multiplying by 1.0 - 2.0*bit.

    Module state: the plan cache (``functools.lru_cache``, the default 128
    masks, or mask and kept-level pairs) and at most one workspace, kept
    between calls.  A call checks the kept workspace out and uses its
    memory when it is large enough.  On return it keeps its workspace (with
    the views over it for its (N, B) and the previous call's) if
    B <= ``_kept_rows(N)`` = max(``_SC_MIN_ROWS``,
    3 * ``_SC_CALL_LLRS`` // (2 * N)), which covers the AE call budget and
    every default FER batch, and drops it otherwise, so the kept memory is
    at most max(3 * 2^15, 256 * N) LLRs of level rows plus one scratch.  A
    campaign's calls then neither free the workspace nor fault it in again.

    Returns
    -------
    X : (B, N) uint8 array of decided codeword bits, a view of the node-major
        codeword array (not C-contiguous); the decided input bits are
        ``polar_transform(X)``, the transform being an involution.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    B, N = llrs.shape
    frozen = np.asarray(frozen, dtype=bool)
    if frozen.shape != (N,) or N < 1 or N & (N - 1):
        raise ValueError(f"frozen mask of shape {frozen.shape} for {N} LLRs per row; "
                         "it needs shape (N,) with N a power of two")
    n = N.bit_length() - 1
    for level, out in (keep or {}).items():
        if not 0 <= level <= n:
            raise ValueError(f"kept level {level} is not a tree level 0..{n}")
        nodes = int((~frozen).reshape(-1, 1 << level).any(axis=1).sum())
        if np.shape(out) != (nodes << level, B):
            raise ValueError(f"kept level {level} of shape {np.shape(out)}, "
                             f"not ({nodes << level}, {B})")
    plan = _plan(frozen.tobytes(), tuple(sorted(keep)) if keep else ())
    X = np.zeros((N, B), dtype=np.uint8)
    # the Rate-1 guard of each level (see the comment above)
    guards = (0.0,) * (n + 1) if minsum else _RATE1_GUARD + (np.inf,) * (n + 1 - len(_RATE1_GUARD))
    width = _scratch_width(N, B)
    ws = _RETAINED.pop(None, None) or _Workspace()
    rows, halves, tiles, scratch = ws.level_views(N, B, width)
    # the root's entries, cleared before the workspace is kept
    rows[n] = np.ascontiguousarray(llrs.T)
    if n:
        ab = rows[n].reshape(2, N // 2, B)
        halves[n] = (ab[0], ab[1], rows[n - 1])
        tiles[n] = _tiles(ab, rows[n - 1], scratch)
    i = 0
    while i < len(plan):
        kind, level, start, mid, end, after = plan[i]
        i += 1
        if kind == "f":
            _f(tiles[level][0], minsum)
        elif kind == "g":
            _g(tiles[level][1], X[start:mid])
        elif kind == "xor":
            X[start:mid] ^= X[mid:end]
        elif kind == "add":
            a, b, child = halves[level]
            np.add(a, b, out=child)
        elif kind == "rep":
            # fold the halves down to the leaf row and repeat its decision
            for lv in range(level, 0, -1):
                a, b, child = halves[lv]
                np.add(a, b, out=child)
            np.less(rows[0], 0.0, out=X[start:end].view(bool))
        elif kind == "rate1":
            v = rows[level]
            if np.abs(v).min(initial=np.inf) > guards[level]:
                np.less(v, 0.0, out=X[start:end].view(bool))
                i = after
        elif kind == "keep":
            keep[level][start:end] = rows[level]
    rows[n] = halves[n] = tiles[n] = None
    if B <= _kept_rows(N):
        _RETAINED[None] = ws
    return X.T


# --------------------------------------------------- GF(2) weight spectrum

def _popcount_u64(arr: np.ndarray) -> np.ndarray:
    return np.bitwise_count(arr)


# words per numpy call of a weight count: no temporary exceeds 2^16 elements
_CHUNK_BITS = 16
# the most popcounts a weight count may take, the 2^30 words the walk it
# replaced was allowed
_MAX_POPCOUNTS = 1 << 30
# _HALF[v]: the positions of a 64-bit word whose index has bit v clear
_HALF = [sum(1 << p for p in range(64) if not p >> v & 1) for v in range(6)]


def _span(basis: list[int]) -> np.ndarray:
    """All XOR combinations of ``basis`` as uint64: entry i combines the
    words at the set bits of i."""
    out = np.zeros(1 << len(basis), dtype=np.uint64)
    for j, b in enumerate(basis):
        out[1 << j : 2 << j] = out[: 1 << j] ^ np.uint64(b)
    return out


def _vanishing(basis: list[int], mask: int) -> list[int]:
    """A basis of the span's words that are zero on ``mask``: the rows of an
    echelon form keyed by (word & mask, word) whose masked half is zero."""
    rows = _gf2._pivots((w & mask) << 64 | w for w in basis).values()
    return [r for r in rows if not r >> 64]


def _coset_histograms(inner: list[int], outer: list[int], mask: int) -> np.ndarray:
    """Row i: the weight histogram on ``mask`` of the coset c_i + span(inner),
    c_i the XOR of the ``outer`` words at the set bits of i.  Shape
    (2^len(outer), popcount(mask) + 1), int64."""
    words = [w & mask for w in (*inner, *outer)]
    width = mask.bit_count() + 1
    a = min(len(words), _CHUNK_BITS)
    low = _span(words[:a])
    # combination index h << a | i lies in coset row (h << a | i) >> len(inner)
    per = 1 << max(a - len(inner), 0)
    offsets = (np.arange(1 << a) >> len(inner)) * width
    hist = np.zeros((1 << len(outer), width), dtype=np.int64)
    for h, x in enumerate(_span(words[a:])):
        w = _popcount_u64(low ^ x) + offsets
        r = (h << a) >> len(inner)
        hist[r : r + per] += np.bincount(w, minlength=per * width).reshape(per, width)
    return hist


def gray_weight_histogram(basis, nbits: int) -> np.ndarray:
    """Weight distribution of the span of packed words (codewords as uint64).

    Counts each of the 2^k XOR combinations of the k <= 62 given words (the
    zero word included, so a span of rank r is counted 2^(k-r) times) in
    int64, without walking them; a word with a bit at or above ``nbits`` is
    refused.  The positions split into L, those whose index has bit v
    clear, and R, the rest.  With G0 a basis of the span's words that are
    zero on R, Y of those zero on L, and G1 completing G0 and Y to a basis,
    every word is g0 + g1 + y in one way, of weight wt_L(g0 + g1) +
    wt_R(g1 + y).  So the histogram is the sum over g1 in span(G1) of the
    convolution of the L-weights of the coset g1 + span(G0) with the
    R-weights of g1 + span(Y): 2^(|G0|+|G1|) + 2^(|G1|+|Y|) popcounts, where
    a walk takes 2^(|G0|+|G1|+|Y|).  v is chosen by that cost among the six
    bits, with the trivial split (L every position, R empty, the walk itself)
    as one more candidate, so no input costs more than the walk.  The dual of
    a decreasing monomial code splits as a (u | u+v) code: (64,37)'s 2^27
    words take 2^17 + 2^17 popcounts.  A span whose cheapest split takes
    more than 2^30 popcounts is refused before any is counted, and then
    more than 62 words, whose combinations overflow the counts.
    """
    words = [int(w) for w in np.asarray(basis, dtype=np.uint64)]
    for w in words:
        if w >> nbits:
            raise ValueError(f"word {w:#x} has a bit at or above nbits = {nbits}")
    full = (1 << min(nbits, 64)) - 1
    span = list(_gf2._pivots(words).values())
    r = len(span)
    # (cost, L, G0, Y) for each split, its cost 2^(r - |Y|) + 2^(r - |G0|)
    splits = []
    for L in [full] + [full & h for h in _HALF if full & ~h]:
        g0, y = _vanishing(span, full & ~L), _vanishing(span, L)
        splits.append(((1 << r - len(y)) + (1 << r - len(g0)), L, g0, y))
    cost, L, g0, y = min(splits, key=lambda split: split[0])
    if cost > _MAX_POPCOUNTS:
        raise ValueError(
            f"a span of rank {r} needs {cost} popcounts at its cheapest split, "
            f"more than 2^{_MAX_POPCOUNTS.bit_length() - 1}"
        )
    # after the budget, so that a span too large to count (every span of
    # rank 59 or more) is refused by its cost
    if len(words) > 62:
        raise ValueError(f"2^{len(words)} combinations overflow the int64 counts")
    # the pivots of g0 and y come first, as they are independent
    g1 = list(_gf2._pivots([*g0, *y, *span]).values())[len(g0) + len(y):]
    WL = _coset_histograms(g0, g1, L)
    WR = _coset_histograms(y, g1, full & ~L)
    counts = np.zeros(nbits + 1, dtype=np.int64)
    for a, row in enumerate(WL.T @ WR):
        counts[a : a + len(row)] += row
    return counts << (len(words) - r)
