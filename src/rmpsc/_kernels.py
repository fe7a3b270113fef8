"""Hot numeric kernels: polar transform, SC decoding, GF(2) weight spectra."""

from __future__ import annotations

import numpy as np

# the only kernel implementation; recorded with benchmark results
BACKEND = "numpy"

LLR_CLAMP = 40.0


# ----------------------------------------------------------------- transform

def _butterfly(x: np.ndarray, size: int, inner: int = 1) -> np.ndarray:
    """Polar transform in place along an axis of ``size`` blocks of ``inner``
    contiguous elements each (``x`` C-ordered): log2(size) XOR stages."""
    d = 1
    while d < size:
        w = x.reshape(-1, 2, d * inner)
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


# ------------------------------------------------------------------ boxplus

def _negate_where(x, bits):
    """Negate float64 ``x`` in place where the 0/1 ``bits`` are set, by XOR of
    its sign bit; exactly ``(1.0 - 2.0*bits) * x``, for +-0.0 too."""
    xv = x.view(np.uint64)
    np.bitwise_xor(xv, np.left_shift(bits, 63, dtype=np.uint64), out=xv)
    return x


def _boxplus_numpy(a, b, minsum):
    aa = np.abs(a)
    ab = np.abs(b)
    # strict < 0, not the sign bit: -0.0 counts as non-negative
    flip = (a < 0) != (b < 0)
    if minsum:
        return _negate_where(np.minimum(aa, ab, out=aa), flip)
    # overflow-safe magnitude of the exact check-node rule; clamping at zero
    # keeps the output sign exactly multiplicative, as the tanh form would be.
    # mag = min + log1p(exp(-(aa+ab))) - log1p(exp(-|aa-ab|)), in that order
    mag = np.minimum(aa, ab)
    t = np.add(aa, ab)
    np.negative(t, out=t)
    np.exp(t, out=t)
    mag += np.log1p(t, out=t)
    np.subtract(aa, ab, out=t)
    np.abs(t, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    mag -= np.log1p(t, out=t)
    return _negate_where(np.maximum(mag, 0.0, out=mag), flip)


# ------------------------------------------------------------- SC decoding
#
# Recursive successive cancellation in natural bit order on (size, B) node
# arrays: the node at tree level ``level`` starting at u-index ``start`` gets
# the LLRs for u-indices [start, start + 2^level) of all B frames and returns
# its sub-codeword.  Three subtree kinds are decoded without walking their
# leaves, all with decisions identical to plain SC:
#
# - Rate-0 (no information bit): every decision is 0, no LLR is needed.
# - Rep (one information bit, the last leaf): every left sibling on the path
#   to that leaf is Rate-0, so each g step is (1.0 - 2.0*0)*a + b = a + b;
#   folding the halves with + reproduces SC's additions exactly.
# - Rate-1 (no frozen bit) under min-sum, when no node LLR is +-0.0: min-sum's
#   f is zero only if an input is, and g then adds two values of the same
#   sign, so by induction SC's codeword is the hard decision x = (v < 0) and
#   U is its polar transform.  A zero anywhere in the node, or the exact rule
#   (whose f can round to 0 from nonzero inputs), keeps the recursion.
#
# Below a node that recurses, a Rate-0 left child is not visited and f is not
# computed for it: the child needs no LLR, and g is then a + b.  Signs are
# applied by flipping the float64 sign bit (``_negate_where``), which gives the
# same bits as the products with +-1.0 of the textbook f and g, +-0.0 included.


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
        decoding order.  Not visited, and not reported: the Rate-0 left
        child of a node that recurses (f is not computed for it), and the
        subtrees below a Rate-0 or Rep node and below a Rate-1 node under
        min-sum with no zero LLR.  The trace does not change the recursion.

    f and g apply their signs by flipping the float64 sign bit, with the same
    bits as multiplying by 1.0 - 2.0*bit.

    Returns
    -------
    (U, X) : (B, N) uint8 arrays of decided input bits and codeword bits,
        with X the polar transform of U by construction.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    B, N = llrs.shape
    is_frozen = np.asarray(frozen, dtype=bool).tolist()
    # info_before[i]: number of information bits among u-indices [0, i)
    info_before = [0]
    for f in is_frozen:
        info_before.append(info_before[-1] + (not f))
    U = np.zeros((N, B), dtype=np.uint8)

    def node(v, level, start):
        if trace is not None:
            trace(level, start, v)
        size = v.shape[0]
        end = start + size
        info = info_before[end] - info_before[start]
        if info == 0:
            return np.zeros((size, B), dtype=np.uint8)
        if info == 1 and not is_frozen[end - 1]:
            while v.shape[0] > 1:
                h = v.shape[0] // 2
                v = v[:h] + v[h:]
            bit = (v[0] < 0).view(np.uint8)
            U[end - 1] = bit
            return np.broadcast_to(bit, (size, B))
        if minsum and info == size and v.all():
            x = (v < 0).view(np.uint8)
            u = U[start:end]
            u[:] = x
            _butterfly(u, size, B)  # polar transform along the node axis
            return x
        h = size // 2
        a, b = v[:h], v[h:]
        if info_before[start + h] == info_before[start]:
            # Rate-0 left child: its decisions are 0, so f is not needed and
            # g is (1.0 - 2.0*0)*a + b = a + b
            right = node(a + b, level - 1, start + h)
            return np.concatenate((right, right))
        left = node(_boxplus_numpy(a, b, minsum), level - 1, start)
        g = _negate_where(a.copy(), left)
        g += b
        right = node(g, level - 1, start + h)
        return np.concatenate((left ^ right, right))

    # node arrays are (size, B); a (B, N) view of an (N, B) array is not copied
    X = node(np.ascontiguousarray(llrs.T), N.bit_length() - 1, 0)
    return np.ascontiguousarray(U.T), np.ascontiguousarray(X.T)


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
