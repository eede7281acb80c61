#include "ot/ferret.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"
#include "ot/spcot.h"

namespace ironman::ot {

namespace {

/**
 * Engine phases are traced on every Nth extension only: a saturated
 * reservoir extends continuously and per-phase spans for all of them
 * would wash the per-request timeline out of the bounded rings. The
 * phase Timers already run for the stats ledger, so a sampled span is
 * just one extra ring write re-using their duration.
 */
constexpr uint64_t kTracePhaseSampleEvery = 4;

bool
sampleThisExtension()
{
    if (!trace::enabled())
        return false;
    static std::atomic<uint64_t> n{0};
    return n.fetch_add(1, std::memory_order_relaxed) %
               kTracePhaseSampleEvery ==
           0;
}

/** Span with explicit duration ending now (the Timer's phase). */
void
phaseSpan(bool sampled, const char *name, uint64_t dur_us,
          uint64_t arg = 0)
{
    if (sampled)
        trace::emitSpan(name, "engine", trace::nowUs() - dur_us, dur_us,
                        0, arg);
}

LpnParams
lpnParamsOf(const FerretParams &p)
{
    LpnParams lp;
    lp.n = p.n;
    lp.k = p.k;
    lp.d = p.lpnWeight;
    lp.seed = p.lpnSeed;
    return lp;
}

SpcotConfig
spcotConfigOf(const FerretParams &p)
{
    SpcotConfig cfg;
    cfg.numLeaves = p.treeLeaves();
    cfg.arity = p.arity;
    cfg.prg = p.prg;
    return cfg;
}

/**
 * Pool-parallel LPN encode of rows [0, count) through the tape when
 * one is built, falling back to the streaming scratch path (2^23+
 * sets, above the tape memory cap). Output is identical either way.
 */
void
encodePooled(const LpnEncoder &enc, OtWorkspace &ws, const Block *in,
             Block *inout, size_t count)
{
    ws.pool.parallelFor(count, [&](int worker, size_t lo, size_t hi) {
        if (ws.tape.ready())
            enc.encodeBlocksTape(in, inout + lo, lo, hi - lo, ws.tape);
        else
            enc.encodeBlocks(in, inout + lo, lo, hi - lo, ws.lpn[worker]);
    });
}

/**
 * Copy each tree's first bucketSize() leaves into its bucket of the
 * n staging rows. A no-op on the scatter-free feed, where the leaf
 * matrix already is the row vector.
 */
void
scatterLeaves(const FerretParams &p, OtWorkspace &ws)
{
    if (ws.scatterFree())
        return;
    const size_t bucket = p.bucketSize();
    for (size_t tr = 0; tr < p.t; ++tr) {
        const size_t row0 = tr * bucket;
        std::copy_n(ws.leaf + tr * p.treeLeaves(),
                    std::min(bucket, p.n - row0), ws.rows + row0);
    }
}

/**
 * Build the engine's index tape unless the set is above the memory
 * cap (2^23+, which stays on the streaming path). Idempotent; shared
 * by both endpoints so the cap policy lives in one place.
 */
void
ensureTapeFor(const FerretParams &p, const LpnEncoder &enc,
              OtWorkspace &ws)
{
    if (LpnIndexTape::bytesFor(p.n, p.lpnWeight) <=
        OtWorkspace::kLpnTapeBytesCap)
        enc.buildTape(ws.tape, p.n, ws.pool, ws.lpn.data());
}

} // namespace

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

FerretCotSender::FerretCotSender(net::Channel &channel,
                                 const FerretParams &params,
                                 const Block &delta,
                                 std::vector<Block> base)
    : ch(&channel), p(params), delta_(delta), baseQ(std::move(base)),
      encoder(lpnParamsOf(params))
{
    IRONMAN_CHECK(baseQ.size() >= p.reservedCots(),
                  "need k + t*log2(l) base COTs");
}

FerretCotSender::FerretCotSender(const FerretParams &params)
    : p(params), encoder(lpnParamsOf(params))
{
}

void
FerretCotSender::resetSession(net::Channel &channel, const Block &delta,
                              const Block *base, size_t n)
{
    IRONMAN_CHECK(n >= p.reservedCots(),
                  "need k + t*log2(l) base COTs");
    ch = &channel;
    delta_ = delta;
    baseQ.assign(base, base + n);
    tweak = 1;
}

void
FerretCotSender::prewarm()
{
    ws.prepare(p, threads, scatterFree_);
    ensureTape();
    baseQ.reserve(p.reservedCots());
}

void
FerretCotSender::ensureTape()
{
    ensureTapeFor(p, encoder, ws);
}

void
FerretCotSender::extendInto(Rng &rng, Block *out)
{
    Timer total;
    const bool traced = sampleThisExtension();
    IRONMAN_CHECK(ch && baseQ.size() >= p.reservedCots(),
                  "engine not bound to a session (resetSession)");
    ws.prepare(p, threads, scatterFree_);
    ensureTape();
    const size_t reserved = p.reservedCots();
    uint64_t prg_ops = 0;

    // 1. Split the base reserve.
    const Block *lpn_r = baseQ.data();         // k entries
    const Block *spcot_q = baseQ.data() + p.k; // t*log2(l) entries

    // 2. Interactive SPCOT into the workspace leaf matrix — in
    // scatter-free mode that matrix IS the w vector.
    Timer phase;
    spcotSendInto(*ch, spcotConfigOf(p), p.t, delta_, spcot_q, rng, tweak,
                  ws.pool, ws.spcot, ws.leaf, &prg_ops);
    const uint64_t spcot_us = uint64_t(phase.seconds() * 1e6);
    stats_.add("spcot_us", spcot_us);
    stats_.add("spcot_prg_ops", prg_ops);
    phaseSpan(traced, "spcot_send", spcot_us, prg_ops);

    // 3. Scatter tree leaves into the length-n w vector, then LPN.
    phase.reset();
    Block *z = ws.rows;
    scatterLeaves(p, ws);
    encodePooled(encoder, ws, lpn_r, z, p.n);
    const uint64_t lpn_us = uint64_t(phase.seconds() * 1e6);
    stats_.add("lpn_us", lpn_us);
    phaseSpan(traced, "lpn_encode", lpn_us, p.n);

    // 4. Bootstrap: re-reserve, hand out the rest.
    baseQ.assign(z, z + reserved);
    std::copy(z + reserved, z + p.n, out);

    stats_.add("extend_us", uint64_t(total.seconds() * 1e6));
    stats_.add("extensions", 1);
    stats_.add("output_cots", p.n - reserved);
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

FerretCotReceiver::FerretCotReceiver(net::Channel &channel,
                                     const FerretParams &params,
                                     BitVec base_choice,
                                     std::vector<Block> base_t)
    : ch(&channel), p(params), baseChoice(std::move(base_choice)),
      baseT(std::move(base_t)), encoder(lpnParamsOf(params))
{
    IRONMAN_CHECK(baseT.size() >= p.reservedCots() &&
                      baseChoice.size() == baseT.size(),
                  "need k + t*log2(l) base COTs");
}

FerretCotReceiver::FerretCotReceiver(const FerretParams &params)
    : p(params), encoder(lpnParamsOf(params))
{
}

void
FerretCotReceiver::resetSession(net::Channel &channel,
                                const BitVec &base_choice,
                                const Block *base_t, size_t n)
{
    IRONMAN_CHECK(n >= p.reservedCots() && base_choice.size() >= n,
                  "need k + t*log2(l) base COTs");
    ch = &channel;
    baseChoice.assignRange(base_choice, 0, n);
    baseT.assign(base_t, base_t + n);
    tweak = 1;
}

void
FerretCotReceiver::prewarm()
{
    ws.prepare(p, threads, scatterFree_);
    ensureTape();
    baseT.reserve(p.reservedCots());
}

void
FerretCotReceiver::ensureTape()
{
    ensureTapeFor(p, encoder, ws);
}

void
FerretCotReceiver::extendInto(Rng &rng, BitVec &choice_out, Block *t_out)
{
    Timer total;
    const bool traced = sampleThisExtension();
    IRONMAN_CHECK(ch && baseT.size() >= p.reservedCots(),
                  "engine not bound to a session (resetSession)");
    ws.prepare(p, threads, scatterFree_);
    ensureTape();
    const size_t bucket = p.bucketSize();
    const size_t reserved = p.reservedCots();
    uint64_t prg_ops = 0;

    // 1. Split the base reserve: bits e / blocks s feed LPN, the rest
    // feeds SPCOT.
    ws.e.assignRange(baseChoice, 0, p.k);
    const Block *lpn_s = baseT.data();

    // 2. Sample one punctured position per bucket and run SPCOT.
    for (size_t tr = 0; tr < p.t; ++tr)
        ws.alphas[tr] = rng.nextBelow(std::min(bucket, p.n - tr * bucket));

    Timer phase;
    spcotRecvInto(*ch, spcotConfigOf(p), p.t, ws.alphas.data(), baseChoice,
                  p.k, baseT.data() + p.k, tweak, ws.pool, ws.spcot,
                  ws.leaf, &prg_ops);
    const uint64_t spcot_us = uint64_t(phase.seconds() * 1e6);
    stats_.add("spcot_us", spcot_us);
    stats_.add("spcot_prg_ops", prg_ops);
    phaseSpan(traced, "spcot_recv", spcot_us, prg_ops);

    // 3. Build (u, v) over the n rows (scatter-free: the leaf matrix
    // already is v), then LPN-encode into (x, y).
    phase.reset();
    Block *y = ws.rows;
    scatterLeaves(p, ws);
    ws.x.resize(p.n);
    ws.x.zeroAll();
    for (size_t tr = 0; tr < p.t; ++tr)
        ws.x.set(tr * bucket + ws.alphas[tr], true);
    if (ws.tape.ready())
        encoder.encodeBitsTape(ws.e, ws.x, ws.tape);
    else
        encoder.encodeBits(ws.e, ws.x, ws.lpn[0]);
    encodePooled(encoder, ws, lpn_s, y, p.n);
    const uint64_t lpn_us = uint64_t(phase.seconds() * 1e6);
    stats_.add("lpn_us", lpn_us);
    phaseSpan(traced, "lpn_encode", lpn_us, p.n);

    // 4. Bootstrap.
    baseChoice.assignRange(ws.x, 0, reserved);
    baseT.assign(y, y + reserved);

    choice_out.assignRange(ws.x, reserved, p.n - reserved);
    std::copy(y + reserved, y + p.n, t_out);

    stats_.add("extend_us", uint64_t(total.seconds() * 1e6));
    stats_.add("extensions", 1);
    stats_.add("output_cots", p.n - reserved);
}

} // namespace ironman::ot
