#include "ot/chosen_ot.h"

#include <cstring>

#include "common/logging.h"
#include "net/codec.h"

namespace ironman::ot {

namespace {

inline uint64_t
maskWidth(uint64_t v, unsigned width)
{
    return width == 64 ? v : (v & ((uint64_t(1) << width) - 1));
}

} // namespace

void
chosenOtSend(net::Channel &ch, const crypto::Crhf &crhf, const Block *m0,
             const Block *m1, size_t n, const Block &delta, const Block *q,
             uint64_t tweak_base, ChosenOtScratch &scratch)
{
    ch.recvBitsInto(scratch.d);
    IRONMAN_CHECK(scratch.d.size() == n);

    if (scratch.cipher.size() < 2 * n)
        scratch.cipher.resize(2 * n);
    if (scratch.pad0.size() < n)
        scratch.pad0.resize(n);
    if (scratch.pad1.size() < n)
        scratch.pad1.resize(n);

    // Stage the 2n hash inputs, run two fused batch hashes (both pads
    // of instance i share tweak_base + i), then mask.
    Block *pad0 = scratch.pad0.data();
    Block *pad1 = scratch.pad1.data();
    for (size_t i = 0; i < n; ++i) {
        bool di = scratch.d.get(i);
        pad0[i] = q[i] ^ scalarMul(di, delta);
        pad1[i] = q[i] ^ scalarMul(!di, delta);
    }
    crhf.hashBatch(pad0, pad0, n, tweak_base);
    crhf.hashBatch(pad1, pad1, n, tweak_base);

    Block *cipher = scratch.cipher.data();
    for (size_t i = 0; i < n; ++i) {
        cipher[2 * i] = m0[i] ^ pad0[i];
        cipher[2 * i + 1] = m1[i] ^ pad1[i];
    }
    ch.sendBlocks(cipher, 2 * n);
}

void
chosenOtRecv(net::Channel &ch, const crypto::Crhf &crhf,
             const BitVec &choices, const BitVec &b, size_t b_offset,
             const Block *t, size_t n, Block *out, uint64_t tweak_base,
             ChosenOtScratch &scratch)
{
    IRONMAN_CHECK(choices.size() == n);

    BitVec &d = scratch.d;
    d.resize(n);
    for (size_t i = 0; i < n; ++i)
        d.set(i, choices.get(i) ^ b.get(b_offset + i));
    ch.sendBits(d);

    if (scratch.cipher.size() < 2 * n)
        scratch.cipher.resize(2 * n);
    ch.recvBlocks(scratch.cipher.data(), 2 * n);

    // The COT strings are contiguous, so one fused batch hash covers
    // every pad.
    if (scratch.pad0.size() < n)
        scratch.pad0.resize(n);
    Block *pads = scratch.pad0.data();
    crhf.hashBatch(t, pads, n, tweak_base);

    const Block *cipher = scratch.cipher.data();
    for (size_t i = 0; i < n; ++i)
        out[i] = cipher[2 * i + choices.get(i)] ^ pads[i];
}

// ---------------------------------------------------------------------------
// Width-packed wire variants
// ---------------------------------------------------------------------------

void
chosenOtSendPacked(net::Channel &ch, const crypto::Crhf &crhf,
                   const Block *m0, const Block *m1, size_t n,
                   unsigned wire_width, const Block &delta, const Block *q,
                   uint64_t tweak_base, ChosenOtScratch &scratch)
{
    IRONMAN_CHECK(wire_width >= 1 && wire_width <= 64);

    // Raw derand bits: ceil(n/8) bytes straight into the BitVec's word
    // storage (only bits < n are ever read).
    scratch.d.resize(n);
    ch.recvBytes(scratch.d.rawWords().data(), (n + 7) / 8);

    if (scratch.pad0.size() < n)
        scratch.pad0.resize(n);
    if (scratch.pad1.size() < n)
        scratch.pad1.resize(n);

    // Pads stay full-Block CRHF outputs — identical algebra to the
    // unpacked path; only the transmitted lanes shrink.
    Block *pad0 = scratch.pad0.data();
    Block *pad1 = scratch.pad1.data();
    for (size_t i = 0; i < n; ++i) {
        bool di = scratch.d.get(i);
        pad0[i] = q[i] ^ scalarMul(di, delta);
        pad1[i] = q[i] ^ scalarMul(!di, delta);
    }
    crhf.hashBatch(pad0, pad0, n, tweak_base);
    crhf.hashBatch(pad1, pad1, n, tweak_base);

    const size_t bytes = net::packedLaneBytes(2 * n, wire_width);
    if (scratch.packed.size() < bytes)
        scratch.packed.resize(bytes);
    uint8_t *lanes = scratch.packed.data();
    std::memset(lanes, 0, bytes);
    for (size_t i = 0; i < n; ++i) {
        net::putBitsLE(lanes, (2 * i) * wire_width, wire_width,
                       maskWidth((m0[i] ^ pad0[i]).lo, wire_width));
        net::putBitsLE(lanes, (2 * i + 1) * wire_width, wire_width,
                       maskWidth((m1[i] ^ pad1[i]).lo, wire_width));
    }
    ch.sendBytes(lanes, bytes);
}

void
chosenOtRecvPacked(net::Channel &ch, const crypto::Crhf &crhf,
                   const BitVec &choices, const BitVec &b, size_t b_offset,
                   const Block *t, size_t n, unsigned wire_width,
                   Block *out, uint64_t tweak_base,
                   ChosenOtScratch &scratch)
{
    IRONMAN_CHECK(choices.size() == n);
    BitVec &d = scratch.d;
    d.resize(n);
    for (size_t i = 0; i < n; ++i)
        d.set(i, choices.get(i) ^ b.get(b_offset + i));
    ch.sendBytes(d.rawWords().data(), (n + 7) / 8);

    const size_t bytes = net::packedLaneBytes(2 * n, wire_width);
    if (scratch.packed.size() < bytes)
        scratch.packed.resize(bytes);
    ch.recvBytes(scratch.packed.data(), bytes);

    if (scratch.pad0.size() < n)
        scratch.pad0.resize(n);
    Block *pads = scratch.pad0.data();
    crhf.hashBatch(t, pads, n, tweak_base);

    const uint8_t *lanes = scratch.packed.data();
    for (size_t i = 0; i < n; ++i) {
        const uint64_t lane = net::getBitsLE(
            lanes, (2 * i + choices.get(i)) * wire_width, wire_width);
        out[i] = Block::fromUint64(
            maskWidth(lane ^ pads[i].lo, wire_width));
    }
}

} // namespace ironman::ot
