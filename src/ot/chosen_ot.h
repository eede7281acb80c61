/**
 * @file
 * Chosen-message 1-out-of-2 OT from COT correlations (Fig. 2).
 *
 * Given one COT correlation (q / b, t = q ^ b*Delta) and the MMO
 * correlation-robust hash H, a chosen OT of the pair (m0, m1) with
 * receiver choice c costs one bit receiver->sender and two blocks
 * sender->receiver:
 *
 *   R->S:  d = c ^ b
 *   S->R:  e_j = m_j ^ H(q ^ (j^d)*Delta, tweak)   for j in {0,1}
 *   R:     m_c = e_c ^ H(t, tweak)
 *
 * The batch API moves all bits, then all ciphertexts, in single
 * messages so a batch is one round regardless of size; all pad hashes
 * go through Crhf::hashBatch (fused 8-wide MMO on AES-NI).
 */

#ifndef IRONMAN_OT_CHOSEN_OT_H
#define IRONMAN_OT_CHOSEN_OT_H

#include <cstdint>
#include <vector>

#include "common/bitvec.h"
#include "common/block.h"
#include "crypto/crhf.h"
#include "net/channel.h"
#include "ot/cot.h"

namespace ironman::ot {

/**
 * Reusable buffers for the batched chosen-OT endpoints. Grow-only, so
 * steady-state batches of a stable size allocate nothing.
 */
struct ChosenOtScratch
{
    BitVec d;                  ///< derandomization bits on the wire
    std::vector<Block> cipher; ///< ciphertext pairs on the wire
    std::vector<Block> pad0;   ///< batched H inputs/outputs (j = 0)
    std::vector<Block> pad1;   ///< batched H inputs/outputs (j = 1)
    std::vector<uint8_t> packed; ///< width-packed ciphertext lanes
};

/**
 * Sender side of a batched chosen OT. Wire buffers live in @p scratch;
 * allocation-free once warm.
 *
 * @param ch Channel to the receiver.
 * @param m0,m1 Message arrays, @p n each.
 * @param delta COT offset.
 * @param q Sender COT strings (n of them, consumed).
 * @param tweak_base Hash tweaks; instance i uses tweak_base + i.
 */
void chosenOtSend(net::Channel &ch, const crypto::Crhf &crhf,
                  const Block *m0, const Block *m1, size_t n,
                  const Block &delta, const Block *q, uint64_t tweak_base,
                  ChosenOtScratch &scratch);

/**
 * Receiver side of a batched chosen OT: send d = choices ^ b (base-COT
 * choice bits b[b_offset ...]), receive the 2n ciphertexts, and unmask
 * the chosen one of each pair with the batch-hashed COT strings @p t
 * into @p out. Wire buffers live in @p scratch; allocation-free once
 * warm.
 */
void chosenOtRecv(net::Channel &ch, const crypto::Crhf &crhf,
                  const BitVec &choices, const BitVec &b, size_t b_offset,
                  const Block *t, size_t n, Block *out, uint64_t tweak_base,
                  ChosenOtScratch &scratch);

// ---------------------------------------------------------------------------
// Width-packed wire variants
// ---------------------------------------------------------------------------
//
// Same OT algebra, lean wire: the pads are still full-Block CRHF
// hashes of the COT strings (so packed and unpacked runs consume the
// SAME correlations and produce the SAME plaintexts), but only the
// low wire_width bits of each masked message travel — ciphertexts as
// 2n contiguous wire_width-bit LSB-first lanes, derandomization bits
// as ceil(n/8) raw bytes. Neither direction carries a length prefix:
// n and wire_width are protocol state both ends already agree on.
// Truncating e_j = m_j ^ H(...) to wire_width bits commutes with the
// receiver's XOR unmask, so out[i].lo holds exactly the low
// wire_width bits of the chosen message (out[i].hi = 0); callers that
// only consume those bits (GMW AND at width 1, MUX at the fixed-point
// width) decode bit-identically to the unpacked path.

/** Packed sender: recv raw derand bits, send 2n wire_width-bit lanes. */
void chosenOtSendPacked(net::Channel &ch, const crypto::Crhf &crhf,
                        const Block *m0, const Block *m1, size_t n,
                        unsigned wire_width, const Block &delta,
                        const Block *q, uint64_t tweak_base,
                        ChosenOtScratch &scratch);

/** Packed receiver: raw derand bits out, the chosen lanes unmasked. */
void chosenOtRecvPacked(net::Channel &ch, const crypto::Crhf &crhf,
                        const BitVec &choices, const BitVec &b,
                        size_t b_offset, const Block *t, size_t n,
                        unsigned wire_width, Block *out,
                        uint64_t tweak_base, ChosenOtScratch &scratch);

} // namespace ironman::ot

#endif // IRONMAN_OT_CHOSEN_OT_H
