/* Native 64-bit modular-arithmetic kernels for repro.ckks.modmath.
 *
 * This is the software MMAU datapath of the repo compiled down to what
 * the hardware actually is: a 64x64 -> 128-bit multiplier feeding a
 * Barrett/Shoup reduction, one fused pass per kernel instead of the
 * ~10-30 NumPy ufunc dispatches the pure-Python 32-bit-limb ladder
 * pays.  Every kernel is *exact* and bit-identical to the NumPy
 * reference in repro/ckks/modmath.py: outputs are either canonical
 * residues (mul_mod, barrett_reduce128, mul_mod_shoup) or the precisely
 * defined lazy representative r = a*w - floor(a*w_shoup / 2^64) * m
 * (mul_mod_shoup_lazy), so both backends agree bit for bit, not merely
 * modulo q.
 *
 * Iteration model: the element-wise kernels share one fixed 2-D
 * signature.  Each runs over a rows x n output matrix whose rows are
 * contiguous (element stride 1, row stride `os`).  A matrix operand is
 * passed as (ptr, row_stride, col_stride) in elements, so a stride of 0
 * broadcasts it along that axis (a (rows, 1) column, a (1, n) row or a
 * scalar) and any 2-D NumPy view with word-aligned strides works
 * without a copy.  Per-row constants (m, mu, mu_hi/mu_lo) are passed as
 * (ptr, row_stride) and read once per row: one modulus per limb, as in
 * the MMAU lanes.  The Python wrapper folds deeper arrays to
 * (shape[0], -1) when their strides allow it and copies otherwise.
 * The whole-transform NTT kernels and nm_bconv instead take
 * C-contiguous matrices with plain row-major indexing: the caller
 * copies a strided input once, then the C code runs every stage of
 * every limb in one call.
 *
 * Build: any C compiler with unsigned __int128 (gcc/clang on 64-bit
 * targets).  No Python.h, no NumPy headers — the library is loaded via
 * cffi in ABI mode (see repro/ckks/_native/__init__.py).
 */

#include <stdint.h>
#include <stddef.h>

typedef uint64_t u64;
typedef int64_t i64;
typedef unsigned __int128 u128;

/* ABI version stamp: the loader refuses a stale shared object whose
 * kernel set no longer matches the cdef it was compiled against. */
#define NM_ABI_VERSION 5

i64 nm_abi_version(void) { return NM_ABI_VERSION; }

static inline u64 nm_mulhi(u64 a, u64 b) {
    return (u64)(((u128)a * b) >> 64);
}

/* ----- mulhi64: high 64 bits of the 128-bit product ------------------ */

void nm_mulhi64(i64 rows, i64 n, u64 *out, i64 os,
                const u64 *a, i64 ar, i64 ac,
                const u64 *b, i64 br, i64 bc) {
    for (i64 r = 0; r < rows; r++) {
        u64 *po = out + r * os;
        const u64 *pa = a + r * ar, *pb = b + r * br;
        for (i64 c = 0; c < n; c++)
            po[c] = nm_mulhi(pa[c * ac], pb[c * bc]);
    }
}

/* ----- mul128: full (hi, lo) product --------------------------------- */

void nm_mul128(i64 rows, i64 n, u64 *out_hi, i64 hs, u64 *out_lo, i64 ls,
               const u64 *a, i64 ar, i64 ac,
               const u64 *b, i64 br, i64 bc) {
    for (i64 r = 0; r < rows; r++) {
        u64 *ph = out_hi + r * hs, *pl = out_lo + r * ls;
        const u64 *pa = a + r * ar, *pb = b + r * br;
        for (i64 c = 0; c < n; c++) {
            u128 p = (u128)pa[c * ac] * pb[c * bc];
            ph[c] = (u64)(p >> 64);
            pl[c] = (u64)p;
        }
    }
}

/* ----- single-word Barrett mul_mod ----------------------------------- *
 * Canonical a, b < m; k = bit_length(m); mu = floor(2^2k / m).
 * Same estimate as the NumPy path (t = floor(x / 2^(k-1)),
 * q_hat = floor(t*mu / 2^(k+1)), remainder < 3m, two corrections);
 * both are exact, so outputs agree bit for bit.                         */

static inline u64 nm_barrett_word(u128 x, u64 m, u64 mu, int k) {
    u64 t = (u64)(x >> (k - 1));
    u64 q = (u64)(((u128)t * mu) >> (k + 1));
    u64 r = (u64)x - q * m;
    if (r >= m) r -= m;
    if (r >= m) r -= m;
    return r;
}

static inline int nm_bits(u64 m) {
    return 64 - __builtin_clzll(m);
}

void nm_mul_mod(i64 rows, i64 n, u64 *out, i64 os,
                const u64 *a, i64 ar, i64 ac,
                const u64 *b, i64 br, i64 bc,
                const u64 *m, i64 mr, const u64 *mu, i64 mur) {
    for (i64 r = 0; r < rows; r++) {
        u64 *po = out + r * os;
        const u64 *pa = a + r * ar, *pb = b + r * br;
        const u64 mv = m[r * mr], muv = mu[r * mur];
        const int k = nm_bits(mv);
        for (i64 c = 0; c < n; c++)
            po[c] = nm_barrett_word((u128)pa[c * ac] * pb[c * bc],
                                    mv, muv, k);
    }
}

/* ----- two-word Barrett reduction of a 128-bit value ------------------ *
 * mu = floor(2^128 / m) as (mu_hi, mu_lo).  q_hat = floor(x*mu / 2^128)
 * computed exactly; remainder < 3m, two corrections.  Canonical output,
 * identical to both NumPy routes (generic and lazy128 fold).           */

static inline u64 nm_barrett128(u64 hi, u64 lo, u64 m, u64 mu_hi,
                                u64 mu_lo) {
    u128 h1 = (u128)hi * mu_lo;
    u128 h2 = (u128)lo * mu_hi;
    u64 h3 = nm_mulhi(lo, mu_lo);
    u128 s = (u128)(u64)h1 + (u64)h2 + h3;
    u64 q = hi * mu_hi + (u64)(h1 >> 64) + (u64)(h2 >> 64)
        + (u64)(s >> 64);
    u64 r = lo - q * m;
    if (r >= m) r -= m;
    if (r >= m) r -= m;
    return r;
}

void nm_barrett_reduce128(i64 rows, i64 n, u64 *out, i64 os,
                          const u64 *hi, i64 hr, i64 hc,
                          const u64 *lo, i64 lr, i64 lc,
                          const u64 *m, i64 mr,
                          const u64 *mu_hi, i64 mhr,
                          const u64 *mu_lo, i64 mlr) {
    for (i64 r = 0; r < rows; r++) {
        u64 *po = out + r * os;
        const u64 *ph = hi + r * hr, *pl = lo + r * lr;
        const u64 mv = m[r * mr], mh = mu_hi[r * mhr], ml = mu_lo[r * mlr];
        for (i64 c = 0; c < n; c++)
            po[c] = nm_barrett128(ph[c * hc], pl[c * lc], mv, mh, ml);
    }
}

/* ----- Shoup multiplies ---------------------------------------------- */

void nm_mul_mod_shoup(i64 rows, i64 n, u64 *out, i64 os,
                      const u64 *a, i64 ar, i64 ac,
                      const u64 *w, i64 wr, i64 wc,
                      const u64 *ws, i64 wsr, i64 wsc,
                      const u64 *m, i64 mr, i64 lazy) {
    for (i64 r = 0; r < rows; r++) {
        u64 *po = out + r * os;
        const u64 *pa = a + r * ar, *pw = w + r * wr, *pws = ws + r * wsr;
        const u64 mv = m[r * mr];
        for (i64 c = 0; c < n; c++) {
            const u64 av = pa[c * ac];
            u64 q = nm_mulhi(av, pws[c * wsc]);
            u64 res = av * pw[c * wc] - q * mv;
            if (!lazy && res >= mv) res -= mv;
            po[c] = res;
        }
    }
}

/* ----- whole-matrix negacyclic NTT ------------------------------------ *
 * The NTTU of Section 5.1 in software: one call transforms every limb of
 * a C-contiguous (L, n) residue matrix in place, all log2(n) stages, with
 * the twiddles read from the stacked bit-reversed tables of
 * BatchedNttContext (row l of psi / psi_shoup belongs to modulus m[l]).
 * Forward is Cooley-Tukey (natural in, bit-reversed out), inverse is
 * Gentleman-Sande (bit-reversed in, natural out, scaled by n^-1) -- the
 * same butterfly sequence as the per-prime NttContext oracle.
 *
 * Reduction is Harvey-lazy: the Shoup product w*v - floor(v*w'/2^64)*m
 * lands in [0, 2m) for any v < 2^64, forward residues stay below 4m and
 * inverse residues below 2m between stages, and one final pass
 * normalizes to canonical residues.  4m < 2^64 holds for every modulus
 * below 2^62 (MODULUS_LIMIT), and canonical outputs are unique, so the
 * result is bit-identical to the oracle.  Inputs must be canonical.
 * The kernels keep no scratch: concurrent calls on distinct matrices
 * are safe (cffi releases the GIL for the duration of the call).        */

static inline u64 nm_shoup_lazy(u64 v, u64 w, u64 ws, u64 m) {
    return v * w - nm_mulhi(v, ws) * m;
}

static void nm_ntt_forward_row(i64 n, u64 *a, const u64 *w,
                               const u64 *ws, u64 m) {
    const u64 two_m = 2 * m;
    for (i64 blocks = 1, half = n >> 1; half >= 1;
         blocks <<= 1, half >>= 1) {
        for (i64 b = 0; b < blocks; b++) {
            const u64 wv = w[blocks + b], wsv = ws[blocks + b];
            u64 *x = a + 2 * b * half, *y = x + half;
            for (i64 j = 0; j < half; j++) {
                u64 u = x[j];
                if (u >= two_m) u -= two_m;               /* u < 2m */
                const u64 t = nm_shoup_lazy(y[j], wv, wsv, m);
                x[j] = u + t;                             /* < 4m */
                y[j] = u - t + two_m;                     /* < 4m */
            }
        }
    }
    for (i64 j = 0; j < n; j++) {
        u64 r = a[j];
        if (r >= two_m) r -= two_m;
        if (r >= m) r -= m;
        a[j] = r;
    }
}

static void nm_ntt_inverse_row(i64 n, u64 *a, const u64 *w,
                               const u64 *ws, u64 m, u64 n_inv,
                               u64 n_inv_shoup) {
    const u64 two_m = 2 * m;
    for (i64 blocks = n >> 1, half = 1; blocks >= 1;
         blocks >>= 1, half <<= 1) {
        for (i64 b = 0; b < blocks; b++) {
            const u64 wv = w[blocks + b], wsv = ws[blocks + b];
            u64 *x = a + 2 * b * half, *y = x + half;
            for (i64 j = 0; j < half; j++) {
                const u64 u = x[j], v = y[j];             /* both < 2m */
                u64 s = u + v;
                if (s >= two_m) s -= two_m;
                x[j] = s;
                y[j] = nm_shoup_lazy(u - v + two_m, wv, wsv, m);
            }
        }
    }
    for (i64 j = 0; j < n; j++) {
        u64 r = nm_shoup_lazy(a[j], n_inv, n_inv_shoup, m);
        if (r >= m) r -= m;
        a[j] = r;
    }
}

void nm_ntt_forward(i64 L, i64 n, u64 *a, const u64 *psi,
                    const u64 *psi_shoup, const u64 *m) {
    for (i64 l = 0; l < L; l++)
        nm_ntt_forward_row(n, a + l * n, psi + l * n, psi_shoup + l * n,
                           m[l]);
}

void nm_ntt_inverse(i64 L, i64 n, u64 *a, const u64 *ipsi,
                    const u64 *ipsi_shoup, const u64 *m,
                    const u64 *n_inv, const u64 *n_inv_shoup) {
    for (i64 l = 0; l < L; l++)
        nm_ntt_inverse_row(n, a + l * n, ipsi + l * n, ipsi_shoup + l * n,
                           m[l], n_inv[l], n_inv_shoup[l]);
}

/* ----- fused multiply-accumulate: out = (acc + a*b mod m) mod m ------- *
 * The evk inner-product step of key switching: one pass instead of a
 * mul_mod pass plus an add_mod pass.  acc must be canonical; output is
 * canonical and bit-identical to add_mod(acc, mul_mod(a, b, m), m).    */

void nm_mul_mod_add(i64 rows, i64 n, u64 *out, i64 os,
                    const u64 *acc, i64 accr, i64 accc,
                    const u64 *a, i64 ar, i64 ac,
                    const u64 *b, i64 br, i64 bc,
                    const u64 *m, i64 mr, const u64 *mu, i64 mur) {
    for (i64 r = 0; r < rows; r++) {
        u64 *po = out + r * os;
        const u64 *pacc = acc + r * accr, *pa = a + r * ar, *pb = b + r * br;
        const u64 mv = m[r * mr], muv = mu[r * mur];
        const int k = nm_bits(mv);
        for (i64 c = 0; c < n; c++) {
            u64 s = pacc[c * accc] + nm_barrett_word(
                (u128)pa[c * ac] * pb[c * bc], mv, muv, k);
            if (s >= mv) s -= mv;
            po[c] = s;
        }
    }
}

/* ----- fused BConv multiply-accumulate-reduce ------------------------- *
 * The MMAU proper (Eq. 9 part 2): for each destination limb i and
 * coefficient c, the exact 128-bit sum over source limbs j of
 * terms[j][c] * cross[i][j], Barrett-reduced once at the end.  The
 * caller guarantees the true total stays below 2^128 (the `lazy_ok`
 * gate of rns._bconv_table), so the wrapping u128 accumulation is
 * exact.  All arrays are C-contiguous: terms (src, n), cross
 * (dst, src), out (dst, n); m/mu_hi/mu_lo are per-destination words.
 * Bit-identical to _mmau_accumulate_* + barrett_reduce128.             */

void nm_bconv(i64 dst, i64 src, i64 n,
              u64 *out, const u64 *terms, const u64 *cross,
              const u64 *m, const u64 *mu_hi, const u64 *mu_lo) {
    for (i64 i = 0; i < dst; i++) {
        const u64 *cr = cross + i * src;
        const u64 mv = m[i], mh = mu_hi[i], ml = mu_lo[i];
        u64 *row = out + i * n;
        for (i64 c = 0; c < n; c++) {
            u128 acc = 0;
            for (i64 j = 0; j < src; j++)
                acc += (u128)terms[j * n + c] * cr[j];
            row[c] = nm_barrett128((u64)(acc >> 64), (u64)acc,
                                   mv, mh, ml);
        }
    }
}

/* ----- load-time sanity probe ----------------------------------------- *
 * Returns 0 when a handful of known-answer checks pass; the loader
 * discards the library otherwise (e.g. a miscompiled __int128).        */

i64 nm_selftest(void) {
    const u64 m = ((u64)1 << 61) + 15;          /* 62-bit-class prime */
    const u64 a = m - 2, b = m - 3;
    /* mulhi against the identity (m-2)(m-3) = m^2 - 5m + 6 */
    u128 p = (u128)a * b;
    if (nm_mulhi(a, b) != (u64)(p >> 64)) return 1;
    /* Barrett word vs the slow u128 modulo */
    const int k = nm_bits(m);
    const u64 mu = (u64)((((u128)1) << (2 * k)) / m);
    if (nm_barrett_word(p, m, mu, k) != (u64)(p % m)) return 2;
    /* two-word Barrett on the same product */
    u128 muw = (u128)0 - 1;                      /* 2^128 - 1 */
    u64 mu_hi = (u64)((muw / m) >> 64), mu_lo = (u64)(muw / m);
    /* floor((2^128 - 1) / m) == floor(2^128 / m) unless m | 2^128 —
     * impossible for odd m > 1. */
    if (nm_barrett128((u64)(p >> 64), (u64)p, m, mu_hi, mu_lo)
        != (u64)(p % m)) return 3;
    /* known-answer NTT: q = 17, n = 4, psi = 2 (a primitive 8th root),
     * two limbs so the row offsets are exercised too; expected values
     * come from the per-prime NttContext oracle. */
    {
        const u64 q = 17, qs[2] = {17, 17};
        const u64 psi[8] = {1, 4, 2, 8, 1, 4, 2, 8};
        const u64 ipsi[8] = {1, 13, 9, 15, 1, 13, 9, 15};
        const u64 ninv[2] = {13, 13};
        const u64 in[8] = {1, 2, 3, 4, 16, 0, 5, 9};
        const u64 want[8] = {15, 11, 13, 16, 6, 15, 14, 12};
        u64 psi_s[8], ipsi_s[8], ninv_s[2], x[8];
        for (int i = 0; i < 8; i++) {
            psi_s[i] = (u64)(((u128)psi[i] << 64) / q);
            ipsi_s[i] = (u64)(((u128)ipsi[i] << 64) / q);
            x[i] = in[i];
        }
        ninv_s[0] = ninv_s[1] = (u64)(((u128)ninv[0] << 64) / q);
        nm_ntt_forward(2, 4, x, psi, psi_s, qs);
        for (int i = 0; i < 8; i++)
            if (x[i] != want[i]) return 4;
        nm_ntt_inverse(2, 4, x, ipsi, ipsi_s, qs, ninv, ninv_s);
        for (int i = 0; i < 8; i++)
            if (x[i] != in[i]) return 5;
    }
    /* 2-D ABI: a (2, 3) matrix read through a row stride of 4 times a
     * broadcast (2, 1) column, one modulus per row, into a row-strided
     * output -- exercises every stride argument of the fixed signature. */
    {
        const u64 ms[2] = {m, 113};
        const u64 a2[8] = {m - 1, m - 2, 5, 0, 100, 112, 7, 0};
        const u64 b2[2] = {m - 3, 111};
        u64 mus[2], o[6];
        for (int r = 0; r < 2; r++)
            mus[r] = (u64)((((u128)1) << (2 * nm_bits(ms[r]))) / ms[r]);
        nm_mul_mod(2, 3, o, 3, a2, 4, 1, b2, 1, 0, ms, 1, mus, 1);
        for (int r = 0; r < 2; r++)
            for (int c = 0; c < 3; c++)
                if (o[r * 3 + c]
                    != (u64)(((u128)a2[r * 4 + c] * b2[r]) % ms[r]))
                    return 6;
    }
    return 0;
}
