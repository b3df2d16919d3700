/* Native codec kernels: the DSH decode chain of a span of blocks in one call,
 * alone or with the blocks' multiply, and the Snappy compressor.
 *
 * Built on first use by repro/kernels/native.py with the system C compiler
 * and loaded through ctypes. Each decoder returns 0 on success and non-zero
 * on corrupt input (the span decoders: how many records got through); the
 * statuses carry no detail, because the Python wrapper
 * re-runs the reference decoder to raise the exact typed error. Every read is
 * bounded by the input length and every write by the caller-sized output
 * buffer, checked before the write. No state is shared between calls.
 */
#define _POSIX_C_SOURCE 199309L
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* Record stage bits, as repro.codecs.pipeline.STAGE_*. */
#define STAGE_DELTA 1
#define STAGE_SNAPPY 2
#define STAGE_HUFFMAN 4

#define LUT_BITS 11
#define MAX_CODE 56

/* The reference's canonical decoder (repro.kernels.ref._decode_tables):
 * codes of length L are [first[L], first[L] + count[L]), naming
 * symbols[index[L] + code - first[L]]. lut[p] is the first of those interval
 * tests to accept a prefix of the 11-bit window p, as symbol | length << 8
 * (0: none does).
 */
typedef struct {
    uint16_t lut[1 << LUT_BITS];
    uint64_t first[MAX_CODE + 1];
    uint32_t count[MAX_CODE + 1];
    uint32_t index[MAX_CODE + 1];
    uint8_t symbols[256];
    int32_t max_len;
} huff_table;

/* Decode out_len symbols: a table lookup while 11 bits are buffered, else
 * the reference's bit-by-bit walk (long codes, the stream's tail, invalid
 * codes). Returns 1 when the payload ends early and 2 on an invalid code.
 */
int huffman_decode(const huff_table *t, const uint8_t *in, int64_t n,
                   uint8_t *out, int64_t out_len)
{
    uint64_t buf = 0; /* buffered bits, MSB first */
    int nb = 0;
    int64_t ip = 0, op = 0;
    while (op < out_len) {
        while (nb <= 56 && ip < n) {
            buf |= (uint64_t)in[ip++] << (56 - nb);
            nb += 8;
        }
        if (nb >= LUT_BITS) {
            unsigned e = t->lut[buf >> (64 - LUT_BITS)], len = e >> 8;
            if (len) {
                out[op++] = (uint8_t)e;
                buf <<= len;
                nb -= len;
                continue;
            }
        }
        uint64_t acc = 0;
        for (int len = 1;; len++) {
            if (nb == 0) {
                if (ip == n)
                    return 1;
                buf = (uint64_t)in[ip++] << 56;
                nb = 8;
            }
            acc = acc << 1 | buf >> 63;
            buf <<= 1;
            nb--;
            if (len > t->max_len)
                return 2;
            if (acc >= t->first[len] && acc - t->first[len] < t->count[len]) {
                out[op++] = t->symbols[t->index[len] + (acc - t->first[len])];
                break;
            }
        }
    }
    return 0;
}

/* Snappy block-format decode of src[pos:n] into exactly `expected` bytes.
 *
 * One pass: each tag is parsed and materialized at once. A literal must fit
 * in both the input and the output; a copy must have 0 < offset <= op and fit
 * in the output. An overlapping copy (offset < length) repeats its period
 * byte by byte, as the format defines.
 */
int snappy_decompress(const uint8_t *src, int64_t n, int64_t pos,
                      uint8_t *out, int64_t expected)
{
    int64_t op = 0;
    while (pos < n) {
        uint8_t tag = src[pos++];
        int64_t len, off;
        switch (tag & 3) {
        case 0:
            len = (tag >> 2) + 1;
            if (len > 60) { /* 1-4 little-endian length bytes follow */
                int extra = (int)len - 60;
                if (extra > n - pos)
                    return 1;
                len = 0;
                for (int k = 0; k < extra; k++)
                    len |= (int64_t)src[pos + k] << (8 * k);
                len += 1;
                pos += extra;
            }
            if (len > n - pos || len > expected - op)
                return 1;
            memcpy(out + op, src + pos, (size_t)len);
            pos += len;
            op += len;
            continue;
        case 1:
            if (n - pos < 1)
                return 1;
            len = 4 + ((tag >> 2) & 7);
            off = ((int64_t)(tag >> 5) << 8) | src[pos];
            pos += 1;
            break;
        case 2:
            if (n - pos < 2)
                return 1;
            len = (tag >> 2) + 1;
            off = (int64_t)src[pos] | (int64_t)src[pos + 1] << 8;
            pos += 2;
            break;
        default:
            if (n - pos < 4)
                return 1;
            len = (tag >> 2) + 1;
            off = (int64_t)src[pos] | (int64_t)src[pos + 1] << 8
                | (int64_t)src[pos + 2] << 16 | (int64_t)src[pos + 3] << 24;
            pos += 4;
            break;
        }
        if (off == 0 || off > op || len > expected - op)
            return 1;
        if (off >= len) {
            memcpy(out + op, out + op - off, (size_t)len);
        } else {
            for (int64_t k = 0; k < len; k++)
                out[op + k] = out[op + k - off];
        }
        op += len;
    }
    return op == expected ? 0 : 1;
}

/* Snappy compress: repro.kernels.ref.snappy_compress's greedy matcher,
 * byte for byte. Its table is an exact map (a Python dict) from each 4-byte
 * key to its last position, so this one stores full keys in an
 * open-addressing table with linear probing, a power of two >= 2x the
 * fragment, reset per fragment. Every write is checked against cap first.
 */
typedef struct {
    uint32_t key;
    int32_t pos; /* in the fragment; -1: empty */
} key_slot;

static int emit(uint8_t *out, int64_t cap, int64_t *op, const void *src, int64_t len)
{
    if (len > cap - *op)
        return 1;
    memcpy(out + *op, src, (size_t)len);
    *op += len;
    return 0;
}

static int emit_literal(uint8_t *out, int64_t cap, int64_t *op, const uint8_t *src, int64_t len)
{
    if (len <= 0)
        return 0;
    uint32_t n = (uint32_t)(len - 1);
    int extra = n < 60 ? 0 : n < 1u << 8 ? 1 : n < 1u << 16 ? 2 : n < 1u << 24 ? 3 : 4;
    uint8_t head[5] = {(uint8_t)(extra ? (59 + extra) << 2 : n << 2)};
    for (int k = 0; k < extra; k++)
        head[1 + k] = (uint8_t)(n >> (8 * k));
    return emit(out, cap, op, head, 1 + extra) || emit(out, cap, op, src, len);
}

/* Copy-1 (2 bytes), copy-2 (3) or copy-4 (5): the tag, then the offset. */
static int emit_one_copy(uint8_t *out, int64_t cap, int64_t *op, uint32_t off, int64_t len)
{
    int width = len >= 4 && len <= 11 && off < 2048 ? 1 : off < 1u << 16 ? 2 : 4;
    uint8_t e[5] = {(uint8_t)(width == 1 ? 1 | (len - 4) << 2 | (off >> 8) << 5
                                         : (width == 2 ? 2 : 3) | (len - 1) << 2)};
    for (int k = 0; k < width; k++)
        e[1 + k] = (uint8_t)(off >> (8 * k));
    return emit(out, cap, op, e, 1 + width);
}

static int emit_copy(uint8_t *out, int64_t cap, int64_t *op, uint32_t off, int64_t len)
{
    int status = 0;
    for (; len >= 68 && !status; len -= 64) /* long matches split into 64s */
        status = emit_one_copy(out, cap, op, off, 64);
    if (len > 64 && !status) { /* leave a >= 4-byte tail */
        status = emit_one_copy(out, cap, op, off, len - 4);
        len = 4;
    }
    return status || emit_one_copy(out, cap, op, off, len);
}

/* Map key to pos; returns the position key held before, or -1. */
static int64_t put_key(key_slot *table, uint32_t mask, const uint8_t *p, int32_t pos)
{
    uint32_t key;
    memcpy(&key, p, 4); /* unaligned-safe */
    uint32_t i = (key * 0x9E3779B1u) >> 15 & mask;
    while (table[i].pos >= 0 && table[i].key != key)
        i = (i + 1) & mask;
    int64_t before = table[i].pos;
    table[i].key = key;
    table[i].pos = pos;
    return before;
}

/* Compress src[0:n] (the stream after its uvarint preamble, which the caller
 * writes) into out[0:cap]; *out_len receives the bytes written. Returns 1 when
 * the output would pass cap and 3 when the table cannot be allocated.
 */
int snappy_compress(const uint8_t *src, int64_t n, uint8_t *out, int64_t cap, int64_t *out_len)
{
    uint32_t size = 16;
    while (size < 2 * (n < 65536 ? n : 65536))
        size <<= 1;
    key_slot *table = malloc(size * sizeof *table);
    int64_t op = 0;
    int status = table == NULL ? 3 : 0;
    for (int64_t start = 0; start < n && !status; start += 65536) {
        int64_t end = n - start < 65536 ? n : start + 65536;
        uint32_t mask = 15;
        while (mask + 1 < 2 * (end - start))
            mask = mask << 1 | 1;
        memset(table, 0xff, (mask + 1) * sizeof *table);
        int64_t ip = start, lit = start, fails = 0, last = end - 4;
        while (ip <= last && !status) {
            int64_t cand = put_key(table, mask, src + ip, (int32_t)(ip - start));
            if (cand < 0) {
                fails++; /* skip faster through incompressible runs */
                ip += 1 + (fails >> 5);
                continue;
            }
            cand += start;
            int64_t len = 4;
            while (ip + len < end && src[cand + len] == src[ip + len])
                len++;
            status = emit_literal(out, cap, &op, src + lit, ip - lit)
                  || emit_copy(out, cap, &op, (uint32_t)(ip - cand), len);
            int64_t stop = ip + len < last + 1 ? ip + len : last + 1;
            for (int64_t seed = ip + 1; seed < stop; seed += 7) /* seed inside the match */
                put_key(table, mask, src + seed, (int32_t)(seed - start));
            ip = lit = ip + len;
            fails = 0;
        }
        if (!status)
            status = emit_literal(out, cap, &op, src + lit, end - lit);
    }
    free(table);
    *out_len = op;
    return status;
}

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* One record: undo its stages (Huffman, Snappy, delta) into exactly orig_len
 * bytes at out, adding each stage's nanoseconds to ns[0..2]. The Snappy
 * preamble is a uvarint as repro.codecs.varint.read_varint takes it (at most
 * 6 bytes and 32 bits) and must equal orig_len.
 */
static int decode_record(const uint8_t *in, int64_t n, int64_t snappy_len, int64_t stages,
                         const huff_table *t, uint8_t *out, int64_t orig_len, int64_t *ns)
{
    uint8_t *scratch = NULL;
    int status = 0;
    int64_t t0 = now_ns();
    if (stages & STAGE_HUFFMAN) {
        /* A symbol takes at least one bit, so more than 8n cannot decode. */
        if (t == NULL || snappy_len < 0 || snappy_len > 8 * n
            || (!(stages & STAGE_SNAPPY) && snappy_len != orig_len))
            return 1;
        if ((stages & STAGE_SNAPPY) && (scratch = malloc((size_t)snappy_len + 1)) == NULL)
            return 3;
        status = huffman_decode(t, in, n, scratch ? scratch : out, snappy_len);
        in = scratch ? scratch : out;
        n = snappy_len;
    }
    int64_t t1 = now_ns();
    ns[0] += t1 - t0;
    if (status == 0 && (stages & STAGE_SNAPPY)) {
        uint64_t expected = 0;
        int64_t pos = 0;
        int shift = 0;
        for (; pos < n && (in[pos] & 0x80) && shift < 35; shift += 7)
            expected |= (uint64_t)(in[pos++] & 0x7f) << shift;
        status = pos == n || (in[pos] & 0x80);
        if (status == 0) {
            expected |= (uint64_t)in[pos++] << shift;
            status = expected > 0xffffffffu || expected != (uint64_t)orig_len;
        }
        if (status == 0)
            status = snappy_decompress(in, n, pos, out, orig_len);
    } else if (status == 0 && !(stages & STAGE_HUFFMAN)) {
        status = n != orig_len;
        if (status == 0)
            memcpy(out, in, (size_t)n);
    }
    free(scratch);
    int64_t t2 = now_ns();
    ns[1] += t2 - t1;
    if (status == 0 && (stages & STAGE_DELTA)) {
        if (orig_len % 4)
            return 1;
        uint32_t acc = 0; /* wrapping int32 prefix sum over little-endian lanes */
        for (int64_t i = 0; i < orig_len; i += 4) {
            acc += (uint32_t)out[i] | (uint32_t)out[i + 1] << 8
                 | (uint32_t)out[i + 2] << 16 | (uint32_t)out[i + 3] << 24;
            for (int k = 0; k < 4; k++)
                out[i + k] = (uint8_t)(acc >> (8 * k));
        }
        ns[2] += now_ns() - t2;
    }
    return status;
}

/* numpy's pairwise sum (pairwise_sum_DOUBLE) of the n products
 * v[i] * x[c[i] * k]: below 8 terms a loop from -0.0, up to 128 eight
 * accumulators, above that halves cut at a multiple of 8.
 */
static double pairwise(const double *v, const int32_t *c, const double *x, int64_t k, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += v[i] * x[c[i] * k];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = v[j] * x[c[j] * k];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += v[i + j] * x[c[i + j] * k];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += v[i] * x[c[i] * k];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(v, c, x, k, n2) + pairwise(v + n2, c + n2, x, k, n - n2);
}

/* A span of blocks, each an index record then a value record, decoded until
 * one fails. Row k of irec (vrec) is block k's index (value) record: payload
 * address, payload length, snappy_len, stages, orig_len. Index records are
 * written back to back from idx_out, value records from val_out; ns[3r..3r+2]
 * receive record r's Huffman, Snappy and delta nanoseconds, records counted
 * index then value. With x, each block is then multiplied into out (nrows x
 * k, row-major; x is ncols x k) before the next is decoded: row b of blk is
 * block b's offset into ptr (the blocks' local row pointers), its row count
 * and first row, and a row's products val[j] * x[col[j]] sum as
 * np.add.reduceat sums a segment, the first plus the pairwise sum of the
 * rest, per column. A block whose row pointers or columns disagree with its
 * payload or the operands stops the span too, before it touches out. The
 * multiply's nanoseconds go to ns[6 * nblocks]. Returns how many records got
 * through (a block's value record only once it is multiplied): 2 * nblocks
 * when all did.
 */
int dsh_spmv_span(int64_t nblocks, const int64_t *irec, const int64_t *vrec,
                  const huff_table *itab, const huff_table *vtab,
                  uint8_t *idx_out, uint8_t *val_out, int64_t *ns,
                  const int64_t *blk, const int64_t *ptr, int64_t nptr, const double *x,
                  int64_t ncols, int64_t k, double *out, int64_t nrows)
{
    for (int64_t b = 0; b < nblocks; b++) {
        const int64_t *fi = irec + 5 * b, *fv = vrec + 5 * b;
        if (decode_record((const uint8_t *)(intptr_t)fi[0], fi[1], fi[2], fi[3], itab,
                          idx_out, fi[4], ns + 6 * b))
            return (int)(2 * b);
        if (decode_record((const uint8_t *)(intptr_t)fv[0], fv[1], fv[2], fv[3], vtab,
                          val_out, fv[4], ns + 6 * b + 3))
            return (int)(2 * b + 1);
        if (x != NULL) {
            const int32_t *col = (const int32_t *)idx_out;
            const double *val = (const double *)val_out;
            int64_t at = blk[3 * b], rows = blk[3 * b + 1], row0 = blk[3 * b + 2];
            int64_t nnz = fi[4] / 4;
            int bad = fv[4] != 8 * nnz || at < 0 || rows < 1 || at + rows >= nptr
                   || row0 < 0 || row0 + rows > nrows;
            const int64_t *p = bad ? ptr : ptr + at;
            bad = bad || p[0] != 0 || p[rows] != nnz;
            for (int64_t r = 0; r < rows && !bad; r++)
                bad = p[r] > p[r + 1];
            for (int64_t j = 0; j < nnz && !bad; j++)
                bad = col[j] < 0 || col[j] >= ncols;
            if (bad)
                return (int)(2 * b);
            int64_t t0 = now_ns();
            for (int64_t r = 0; r < rows; r++) {
                int64_t a = p[r], n = p[r + 1] - a;
                for (int64_t j = 0; j < k && n > 0; j++)
                    out[(row0 + r) * k + j] += val[a] * x[col[a] * k + j]
                        + (n > 1 ? pairwise(val + a + 1, col + a + 1, x + j, k, n - 1) : -0.0);
            }
            ns[6 * nblocks] += now_ns() - t0;
        }
        idx_out += fi[4];
        val_out += fv[4];
    }
    return (int)(2 * nblocks);
}

/* dsh_spmv_span without the multiply. */
int dsh_decode_span(int64_t nblocks, const int64_t *irec, const int64_t *vrec,
                    const huff_table *itab, const huff_table *vtab,
                    uint8_t *idx_out, uint8_t *val_out, int64_t *ns)
{
    return dsh_spmv_span(nblocks, irec, vrec, itab, vtab, idx_out, val_out, ns,
                         NULL, NULL, 0, NULL, 0, 0, NULL, 0);
}
