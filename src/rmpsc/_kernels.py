"""Hot numeric kernels: polar transform, SC decoding, GF(2) weight spectra."""

from __future__ import annotations

import numpy as np

# the only kernel implementation; recorded with benchmark results
BACKEND = "numpy"

LLR_CLAMP = 40.0


# ----------------------------------------------------------------- transform

def _butterfly(x: np.ndarray, size: int) -> np.ndarray:
    """Polar transform in place along the last axis, of length ``size``
    (``x`` C-ordered): log2(size) XOR stages."""
    d = 1
    while d < size:
        w = x.reshape(-1, 2, d)
        w[:, 0] ^= w[:, 1]
        d <<= 1
    return x


# byte lanes of a little-endian uint64 with lane bit d clear, for d = 1, 2, 4
_LANE_MASKS = tuple(
    (d, np.uint64(sum(0xFF << (8 * j) for j in range(8) if not j & d))) for d in (1, 2, 4)
)


def polar_transform(u: np.ndarray) -> np.ndarray:
    """Bit transform for encoding; involutive, accepts (..., N) bit arrays.

    Multiplies bit rows by the n-fold Kronecker power of [[1,0],[1,1]], as
    log2(N) butterfly stages of one XOR each.  From N = 8 on, the rows are
    read as little-endian uint64 words of 8 bits each: the first three
    stages run inside each word by shifts, the others XOR whole words.
    """
    # C order, so that every reshape below is a view of x
    x = np.array(u, dtype=np.uint8, order="C", copy=True)
    N = x.shape[-1]
    if N < 8:
        return _butterfly(x, N)
    w = x.view("<u8")
    for d, mask in _LANE_MASKS:
        w ^= (w >> np.uint64(8 * d)) & mask
    _butterfly(w, N // 8)
    return x


# ------------------------------------------------------------------ f and g

def _negate_where(x, bits):
    """Negate float64 ``x`` in place where the 0/1 ``bits`` are set, by XOR of
    its sign bit; exactly ``(1.0 - 2.0*bits) * x``, for +-0.0 too."""
    xv = x.view(np.uint64)
    np.bitwise_xor(xv, np.left_shift(bits, 63, dtype=np.uint64), out=xv)
    return x


# elements per numpy call of f and g on a large node: a tile's operands and
# the scratch (about 0.5 MB) stay in cache, and no node allocates temporaries
_TILE = 1 << 14
_U63 = np.uint64(63)


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
# Recursive successive cancellation in natural bit order on (size, B) node
# arrays: the node at tree level ``level`` starting at u-index ``start`` gets
# the LLRs for u-indices [start, start + 2^level) of all B frames and writes
# its sub-codeword into the same rows of the call's zeroed (N, B) codeword
# array X; a node that recurses then XORs its right half into its left.
# Three subtree kinds are decoded without walking their leaves, all with
# decisions identical to plain SC:
#
# - Rate-0 (no information bit): every decision is 0, no LLR is needed, and
#   the node's rows of X stay zero.
# - Rep (one information bit, the last leaf): every left sibling on the path
#   to that leaf is Rate-0, so each g step is (1.0 - 2.0*0)*a + b = a + b;
#   folding the halves with + reproduces SC's additions exactly.  The leaf's
#   decision is the whole sub-codeword.
# - Rate-1 (no frozen bit) under min-sum, when no node LLR is +-0.0: min-sum's
#   f is zero only if an input is, and g then adds two values of the same
#   sign, so by induction SC's codeword is the hard decision x = (v < 0).  A
#   zero anywhere in the node, or the exact rule (whose f can round to 0 from
#   nonzero inputs), keeps the recursion.
#
# Below a node that recurses, a Rate-0 left child is not visited and f is not
# computed for it: the child needs no LLR, and g is then a + b.  Signs are
# applied by flipping the float64 sign bit, which gives the same bits as the
# products with +-1.0 of the textbook f and g, +-0.0 included.


def sc_decode_batch(
    llrs: np.ndarray, frozen: np.ndarray, minsum: bool = False, trace=None
):
    """Decode a batch of LLR rows.

    Parameters
    ----------
    llrs : (B, N) float array of channel LLRs (positive favours bit 0).
    frozen : (N,) uint8 mask, 1 on frozen u-positions.
    minsum : replace the exact check-node rule by min-sum.
    trace : optional callable ``trace(level, start, node_llrs)``, called with
        the (2^level, B) LLR array of every node the recursion visits, in
        decoding order.  The array is a view into the call's workspace, valid
        only during the callback (copy it to keep it).  Not visited, and not
        reported: the Rate-0 left child of a node that recurses (f is not
        computed for it), and the subtrees below a Rate-0 or Rep node and
        below a Rate-1 node under min-sum with no zero LLR.  The trace does
        not change the recursion.

    The call allocates its LLR memory once (the per-layer arrays of Tal &
    Vardy's SC decoder): a (2N, B) workspace whose rows [2^l, 2^(l+1)) hold
    the node being decoded at level l (the root's rows hold the transposed
    input), which f and g write in place, and a scratch of whole rows, at
    most ``_TILE`` elements per operand (or one row), over which f and g run
    tile by tile on larger nodes.  Its decisions go into one (N, B) uint8
    codeword array, written in place.  f and g apply their signs by flipping
    the float64 sign bit, with the same bits as multiplying by 1.0 - 2.0*bit.

    Returns
    -------
    X : (B, N) uint8 array of decided codeword bits; the decided input bits
        are ``polar_transform(X)``, the transform being an involution.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    B, N = llrs.shape
    is_frozen = np.asarray(frozen, dtype=bool).tolist()
    # info_before[i]: number of information bits among u-indices [0, i)
    info_before = [0]
    for f in is_frozen:
        info_before.append(info_before[-1] + (not f))
    n = N.bit_length() - 1
    X = np.zeros((N, B), dtype=np.uint8)
    L = np.empty((2 * N, B))
    L[N:] = llrs.T
    scratch = _scratch(max(1, min(N // 2, _TILE // max(B, 1))) * B)
    # per level: the node rows, their halves a and b with the child level's
    # rows, and the tiles of f and g over them
    rows = [L[1 << lv : 2 << lv] for lv in range(n + 1)]
    halves = [None]
    tiles = [None]
    for lv in range(1, n + 1):
        ab = rows[lv].reshape(2, 1 << (lv - 1), B)
        halves.append((ab[0], ab[1], rows[lv - 1]))
        tiles.append(_tiles(ab, rows[lv - 1], scratch))

    def node(level, start):
        v = rows[level]
        if trace is not None:
            trace(level, start, v)
        size = 1 << level
        end = start + size
        info = info_before[end] - info_before[start]
        if info == 0:
            return
        if info == 1 and not is_frozen[end - 1]:
            # fold the halves down to the leaf row and repeat its decision
            for lv in range(level, 0, -1):
                a, b, child = halves[lv]
                np.add(a, b, out=child)
            np.less(rows[0], 0.0, out=X[start:end].view(bool))
            return
        if minsum and info == size and v.all():
            np.less(v, 0.0, out=X[start:end].view(bool))
            return
        mid = start + size // 2
        if info_before[mid] == info_before[start]:
            # Rate-0 left child: its decisions are 0, so f is not needed and
            # g is (1.0 - 2.0*0)*a + b = a + b
            a, b, child = halves[level]
            np.add(a, b, out=child)
            node(level - 1, mid)
            X[start:mid] = X[mid:end]
            return
        f_tiles, g_tiles = tiles[level]
        _f(f_tiles, minsum)
        node(level - 1, start)
        _g(g_tiles, X[start:mid])
        node(level - 1, mid)
        X[start:mid] ^= X[mid:end]

    try:
        node(n, 0)
    finally:
        del node  # the closure refers to itself: break the cycle now, not at gc
    return np.ascontiguousarray(X.T)


# --------------------------------------------------- GF(2) weight spectrum

def _popcount_u64(arr: np.ndarray) -> np.ndarray:
    try:
        return np.bitwise_count(arr)
    except AttributeError:  # numpy < 2.0
        as_bytes = arr.view(np.uint8).reshape(arr.shape + (8,))
        table = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1)
        return table[as_bytes].sum(axis=-1)


def _gray_span(basis: np.ndarray) -> np.ndarray:
    """All XOR combinations of the given uint64 basis words, Gray order."""
    out = np.zeros(1 << len(basis), dtype=np.uint64)
    x = np.uint64(0)
    for g in range(1, 1 << len(basis)):
        x ^= basis[(g & -g).bit_length() - 1]
        out[g] = x
    return out


def gray_weight_histogram(basis, nbits: int) -> np.ndarray:
    """Weight distribution of the span of packed words (codewords as uint64).

    Walks all 2^k XOR combinations, split into two Gray-ordered halves; the
    zero word is counted.
    """
    basis = np.asarray(basis, dtype=np.uint64)
    counts = np.zeros(nbits + 1, dtype=np.int64)
    k1 = len(basis) // 2
    lo = _gray_span(basis[:k1])
    for word in _gray_span(basis[k1:]):
        w = _popcount_u64(lo ^ word)
        counts += np.bincount(w.astype(np.int64), minlength=nbits + 1)
    return counts
