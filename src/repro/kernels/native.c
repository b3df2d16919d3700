/* Native decode kernels: the two codec loops that are sequential by nature.
 *
 * Built on first use by repro/kernels/native.py with the system C compiler
 * and loaded through ctypes. Each function returns 0 on success and non-zero
 * on corrupt input; the statuses carry no detail, because the Python wrapper
 * re-runs the reference decoder to raise the exact typed error. Every read is
 * bounded by the input length and every write by the caller-sized output
 * buffer, checked before the write.
 */
#include <stdint.h>
#include <string.h>

/* Walk the stride-8 Huffman DFA, one transition per payload byte.
 *
 * Entry e = state * 256 + byte. emit[e * 8 ..] holds the emit_n[e] symbols
 * completed inside that byte; next[e] is the successor state, or -1 when the
 * byte leaves every code (symbols completed before that bit still count).
 * Returns 1 when the payload ends early and 2 on an invalid code.
 */
int huffman_decode(const int32_t *next, const uint8_t *emit, const uint8_t *emit_n,
                   const uint8_t *payload, int64_t nbytes, uint8_t *out, int64_t out_len)
{
    int64_t produced = 0;
    int32_t state = 0;
    for (int64_t i = 0; i < nbytes; i++) {
        int64_t e = (int64_t)state * 256 + payload[i];
        const uint8_t *sym = emit + e * 8;
        int n = emit_n[e];
        if (out_len - produced >= 8) {
            memcpy(out + produced, sym, 8); /* n <= 8 valid, the rest overwritten */
            produced += n;
        } else {
            for (int k = 0; k < n && produced < out_len; k++)
                out[produced++] = sym[k];
        }
        if (produced >= out_len)
            return 0;
        state = next[e];
        if (state < 0)
            return 2;
    }
    return 1;
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
