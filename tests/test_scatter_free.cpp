/**
 * @file
 * Scatter-free LPN feed tests (invariant 11 of DESIGN.md): on a
 * parameter set with bucketSize() == treeLeaves(), engines write the
 * GGM leaves straight into the LPN row vector. The outputs must be
 * bit-identical to the copying feed for equal RNG seeds, under either
 * feed on either party (the feed is a local layout decision, not a
 * protocol change), and the aliased arena layout must hold.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/two_party.h"
#include "ot/base_cot.h"
#include "ot/ferret.h"
#include "ot/ferret_params.h"
#include "ot/ot_workspace.h"

namespace ironman::ot {
namespace {

struct RunOutput
{
    std::vector<Block> q;
    std::vector<Block> t;
    BitVec choice;
    Block delta;
};

RunOutput
runPair(const FerretParams &p, bool sender_sf, bool receiver_sf,
        int iterations, uint64_t seed)
{
    Rng dealer(seed);
    RunOutput out;
    out.delta = dealer.nextBlock();
    auto [bs, br] = dealBaseCots(dealer, out.delta, p.reservedCots());

    const size_t usable = p.usableOts();
    out.q.resize(usable * iterations);
    out.t.resize(usable * iterations);

    net::runTwoParty(
        [&](net::Channel &ch) {
            FerretCotSender sender(ch, p, out.delta, std::move(bs.q));
            sender.setScatterFree(sender_sf);
            Rng rng(seed + 1);
            for (int it = 0; it < iterations; ++it)
                sender.extendInto(rng, out.q.data() + it * usable);
        },
        [&](net::Channel &ch) {
            FerretCotReceiver receiver(ch, p, std::move(br.choice),
                                       std::move(br.t));
            receiver.setScatterFree(receiver_sf);
            Rng rng(seed + 2);
            BitVec c;
            for (int it = 0; it < iterations; ++it) {
                receiver.extendInto(rng, c,
                                    out.t.data() + it * usable);
                for (size_t i = 0; i < c.size(); ++i)
                    out.choice.pushBack(c.get(i));
            }
        });
    return out;
}

void
expectEqualAndValid(const RunOutput &a, const RunOutput &b)
{
    EXPECT_EQ(a.q, b.q);
    EXPECT_EQ(a.t, b.t);
    EXPECT_EQ(a.choice, b.choice);
    for (size_t i = 0; i < a.q.size(); ++i)
        ASSERT_EQ(a.t[i],
                  a.q[i] ^ scalarMul(a.choice.get(i), a.delta))
            << "index " << i;
}

TEST(ScatterFreeTest, AlignedParamsSelectTheFeed)
{
    EXPECT_FALSE(OtWorkspace::scatterFreeFeed(tinyTestParams()));
    FerretParams p = tinyAlignedParams();
    EXPECT_EQ(p.bucketSize(), p.treeLeaves());
    EXPECT_TRUE(OtWorkspace::scatterFreeFeed(p));
    // Every Table-4 bucket is narrower than its (bit_ceil) tree, so
    // the paper sets stay on the copying feed.
    for (const FerretParams &paper : allPaperParamSets())
        EXPECT_FALSE(OtWorkspace::scatterFreeFeed(paper)) << paper.name;
}

TEST(ScatterFreeTest, MatchesCopyingFeed)
{
    const FerretParams p = tinyAlignedParams();
    RunOutput sf = runPair(p, true, true, 3, 8100);
    RunOutput copy = runPair(p, false, false, 3, 8100);
    expectEqualAndValid(sf, copy);
}

TEST(ScatterFreeTest, FeedIsALocalDecision)
{
    // Mixed feeds across the two parties produce the same transcript
    // and outputs — the wire format cannot depend on the feed.
    const FerretParams p = tinyAlignedParams();
    RunOutput mixed = runPair(p, true, false, 2, 8300);
    RunOutput copy = runPair(p, false, false, 2, 8300);
    expectEqualAndValid(mixed, copy);
}

TEST(ScatterFreeTest, ArenaAliasesRowsOntoLeafSlot)
{
    const FerretParams p = tinyAlignedParams();

    OtWorkspace sf;
    sf.prepare(p, 1, /*scatter_free=*/true);
    EXPECT_TRUE(sf.scatterFree());
    EXPECT_EQ(sf.arena.capacity(), OtWorkspace::requiredBlocks(p, true));
    EXPECT_EQ(sf.arena.capacity(), p.t * p.treeLeaves());
    EXPECT_EQ(sf.rows, sf.leaf) << "rows must alias the leaf slot";
    ASSERT_GE(p.t * p.treeLeaves(), p.n)
        << "the aliased slot must cover every LPN row";

    // The copying layout keeps its separate staging rows.
    OtWorkspace copy;
    copy.prepare(p, 1, /*scatter_free=*/false);
    EXPECT_FALSE(copy.scatterFree());
    EXPECT_EQ(copy.arena.capacity(),
              OtWorkspace::requiredBlocks(p, false));
    EXPECT_NE(copy.rows, copy.leaf);

    // Non-aligned params ignore the request.
    OtWorkspace tiny;
    tiny.prepare(tinyTestParams(), 1, /*scatter_free=*/true);
    EXPECT_FALSE(tiny.scatterFree());
}

} // namespace
} // namespace ironman::ot
