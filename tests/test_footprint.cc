/**
 * @file
 * Tests for the byte-interval algebra (sim::IntervalSet), golden-run
 * per-CTA footprint collection, and the CTA-independence analysis that
 * decides whether the sliced injection engine may run (including the
 * required detection of cross-CTA communication).
 */

#include <gtest/gtest.h>

#include "faults/slicing.hh"
#include "ptx/assembler.hh"
#include "sim/executor.hh"
#include "sim/footprint.hh"

namespace fsp {
namespace {

using namespace sim;

TEST(IntervalSet, AddMergesOverlappingAndAdjacent)
{
    IntervalSet s;
    s.add(10, 20);
    s.add(30, 40);
    EXPECT_EQ(s.rangeCount(), 2u);
    EXPECT_EQ(s.totalBytes(), 20u);

    s.add(20, 30); // adjacent on both sides: collapses to one
    EXPECT_EQ(s.rangeCount(), 1u);
    EXPECT_EQ(s.totalBytes(), 30u);

    s.add(5, 15); // overlaps the front
    EXPECT_EQ(s.rangeCount(), 1u);
    EXPECT_EQ(s.totalBytes(), 35u);

    s.add(100, 100); // empty: ignored
    EXPECT_EQ(s.rangeCount(), 1u);
}

TEST(IntervalSet, FromUnsortedNormalises)
{
    IntervalSet s = IntervalSet::fromUnsorted(
        {{40, 50}, {10, 20}, {15, 30}, {30, 35}, {60, 60}});
    ASSERT_EQ(s.rangeCount(), 2u);
    EXPECT_EQ(s.ranges()[0], (Interval{10, 35}));
    EXPECT_EQ(s.ranges()[1], (Interval{40, 50}));
}

TEST(IntervalSet, MembershipQueries)
{
    IntervalSet s;
    s.add(10, 20);
    s.add(40, 50);

    EXPECT_TRUE(s.intersectsRange(15, 16));
    EXPECT_TRUE(s.intersectsRange(19, 41)); // spans the gap
    EXPECT_FALSE(s.intersectsRange(20, 40)); // exactly the gap
    EXPECT_FALSE(s.intersectsRange(0, 10));
    EXPECT_FALSE(s.intersectsRange(50, 60));

    EXPECT_TRUE(s.containsRange(10, 20));
    EXPECT_TRUE(s.containsRange(12, 15));
    EXPECT_FALSE(s.containsRange(10, 21));
    EXPECT_FALSE(s.containsRange(19, 41));

    IntervalSet t;
    t.add(20, 40);
    EXPECT_FALSE(s.intersects(t));
    t.add(49, 55);
    EXPECT_TRUE(s.intersects(t));
}

TEST(IntervalSet, SubtractAndClip)
{
    IntervalSet s;
    s.add(0, 100);
    IntervalSet holes;
    holes.add(10, 20);
    holes.add(50, 60);

    IntervalSet diff = s.subtract(holes);
    ASSERT_EQ(diff.rangeCount(), 3u);
    EXPECT_EQ(diff.ranges()[0], (Interval{0, 10}));
    EXPECT_EQ(diff.ranges()[1], (Interval{20, 50}));
    EXPECT_EQ(diff.ranges()[2], (Interval{60, 100}));

    IntervalSet clip = diff.clipped(15, 55);
    ASSERT_EQ(clip.rangeCount(), 1u);
    EXPECT_EQ(clip.ranges()[0], (Interval{20, 50}));

    // Subtracting everything leaves nothing.
    EXPECT_TRUE(s.subtract(s).empty());
    // Subtracting nothing is identity.
    EXPECT_EQ(s.subtract(IntervalSet{}), s);
}

TEST(IntervalSet, UnionWith)
{
    IntervalSet a;
    a.add(0, 10);
    a.add(30, 40);
    IntervalSet b;
    b.add(10, 30);
    b.add(50, 60);
    a.unionWith(b);
    ASSERT_EQ(a.rangeCount(), 2u);
    EXPECT_EQ(a.ranges()[0], (Interval{0, 40}));
    EXPECT_EQ(a.ranges()[1], (Interval{50, 60}));
}

/** Grid kernel harness (mirrors test_executor_grid.cc). */
struct GridKernel
{
    Program program;
    GlobalMemory memory{1u << 20};
    LaunchConfig launch;
    std::uint64_t out;

    GridKernel(const std::string &source, Dim3 grid, Dim3 block,
               std::size_t out_words)
        : program(ptx::assemble("grid", source))
    {
        out = memory.allocate(4 * out_words);
        launch.grid = grid;
        launch.block = block;
        launch.params.addU32(static_cast<std::uint32_t>(out));
    }

    RunResult
    run(const TraceOptions *opts = nullptr)
    {
        Executor executor(program, launch);
        return executor.run(memory, opts);
    }
};

/** Each CTA's threads write disjoint words: out[cta*ntid + tid]. */
constexpr const char *kIndependentSource = R"(
    ld.param.u32 $r1, [0]
    cvt.u32.u16 $r2, %ctaid.x
    cvt.u32.u16 $r3, %ntid.x
    mul.lo.u32 $r4, $r2, $r3
    cvt.u32.u16 $r5, %tid.x
    add.u32 $r4, $r4, $r5
    shl.u32 $r6, $r4, 0x00000002
    add.u32 $r6, $r1, $r6
    st.global.u32 [$r6], $r4
    ld.global.u32 $r7, [$r6]
    retp
)";

/**
 * Cross-CTA chain: CTA c stores 7 into out[c] if c == 0, else reads
 * out[c-1] and stores that + 1.  CTAs run in linear order, so the
 * golden output is [7, 8, 9, 10] -- but CTA c reads CTA c-1's output,
 * which is exactly the dependence the analysis must detect.
 */
constexpr const char *kChainSource = R"(
    ld.param.u32 $r1, [0]
    cvt.u32.u16 $r2, %ctaid.x
    shl.u32 $r3, $r2, 0x00000002
    add.u32 $r3, $r1, $r3
    set.eq.u32.u32 $p0|$o127, $r2, 0x00000000
    @$p0.ne mov.u32 $r4, 0x00000007
    @$p0.ne st.global.u32 [$r3], $r4
    @$p0.eq sub.u32 $r5, $r3, 0x00000004
    @$p0.eq ld.global.u32 $r6, [$r5]
    @$p0.eq add.u32 $r6, $r6, 0x00000001
    @$p0.eq st.global.u32 [$r3], $r6
    retp
)";

TEST(Footprints, CollectedPerCtaOnRequest)
{
    GridKernel k(kIndependentSource, {4, 1, 1}, {2, 1, 1}, 8);
    TraceOptions opts;
    opts.ctaFootprints = true;
    auto result = k.run(&opts);
    ASSERT_EQ(result.status, RunStatus::Completed);
    ASSERT_EQ(result.trace.ctaFootprints.size(), 4u);

    for (std::uint64_t cta = 0; cta < 4; ++cta) {
        const CtaFootprint &fp = result.trace.ctaFootprints[cta];
        // Each CTA writes (and reads back) its own 8-byte window.
        Interval window{k.out + cta * 8, k.out + cta * 8 + 8};
        ASSERT_EQ(fp.writes.rangeCount(), 1u) << cta;
        EXPECT_EQ(fp.writes.ranges()[0], window) << cta;
        ASSERT_EQ(fp.reads.rangeCount(), 1u) << cta;
        EXPECT_EQ(fp.reads.ranges()[0], window) << cta;
    }
}

TEST(Footprints, NotCollectedByDefault)
{
    GridKernel k(kIndependentSource, {2, 1, 1}, {2, 1, 1}, 4);
    TraceOptions opts;
    opts.perThreadProfiles = true;
    auto result = k.run(&opts);
    ASSERT_EQ(result.status, RunStatus::Completed);
    EXPECT_TRUE(result.trace.ctaFootprints.empty());
}

TEST(SlicingAnalysis, DisjointCtasAreIndependent)
{
    GridKernel k(kIndependentSource, {4, 1, 1}, {2, 1, 1}, 8);
    TraceOptions opts;
    opts.ctaFootprints = true;
    auto result = k.run(&opts);
    ASSERT_EQ(result.status, RunStatus::Completed);

    auto plan =
        faults::SlicingPlan::analyze(std::move(result.trace.ctaFootprints),
                                     k.memory);
    EXPECT_TRUE(plan.independent());
    EXPECT_EQ(plan.reason(), "cta-independent");
    ASSERT_EQ(plan.ctaCount(), 4u);

    // Load hazards of CTA 1 are precisely the other CTAs' windows.
    const IntervalSet &lh = plan.loadHazards(1);
    EXPECT_FALSE(lh.intersectsRange(k.out + 8, k.out + 16));
    EXPECT_TRUE(lh.containsRange(k.out, k.out + 8));
    EXPECT_TRUE(lh.containsRange(k.out + 16, k.out + 32));
    // Store hazards additionally cover other CTAs' reads; here reads
    // equal writes, so the sets coincide.
    EXPECT_EQ(plan.storeHazards(1), lh);
}

TEST(SlicingAnalysis, CrossCtaReadIsDetected)
{
    GridKernel k(kChainSource, {4, 1, 1}, {1, 1, 1}, 4);
    TraceOptions opts;
    opts.ctaFootprints = true;
    auto result = k.run(&opts);
    ASSERT_EQ(result.status, RunStatus::Completed);

    // Golden chain values confirm the CTAs really communicate.
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(k.memory.peekU32(k.out + 4 * c), 7u + c);

    auto plan =
        faults::SlicingPlan::analyze(std::move(result.trace.ctaFootprints),
                                     k.memory);
    EXPECT_FALSE(plan.independent());
    EXPECT_NE(plan.reason().find("read-after-write"), std::string::npos)
        << plan.reason();
}

TEST(SlicingAnalysis, WriteWriteOverlapIsDetected)
{
    // Every CTA writes out[tid]: all CTAs collide on the same words.
    GridKernel k(R"(
        ld.param.u32 $r1, [0]
        cvt.u32.u16 $r2, %tid.x
        shl.u32 $r3, $r2, 0x00000002
        add.u32 $r3, $r1, $r3
        st.global.u32 [$r3], $r2
        retp
    )",
                 {2, 1, 1}, {2, 1, 1}, 2);
    TraceOptions opts;
    opts.ctaFootprints = true;
    auto result = k.run(&opts);
    ASSERT_EQ(result.status, RunStatus::Completed);

    auto plan =
        faults::SlicingPlan::analyze(std::move(result.trace.ctaFootprints),
                                     k.memory);
    EXPECT_FALSE(plan.independent());
    EXPECT_NE(plan.reason().find("write-write"), std::string::npos)
        << plan.reason();
}

TEST(SlicingAnalysis, SingleCtaIsNotSliceable)
{
    GridKernel k(kIndependentSource, {1, 1, 1}, {4, 1, 1}, 4);
    TraceOptions opts;
    opts.ctaFootprints = true;
    auto result = k.run(&opts);
    ASSERT_EQ(result.status, RunStatus::Completed);

    auto plan =
        faults::SlicingPlan::analyze(std::move(result.trace.ctaFootprints),
                                     k.memory);
    EXPECT_FALSE(plan.independent());
}

TEST(SlicingAnalysis, DefaultPlanIsNotSliceable)
{
    faults::SlicingPlan plan;
    EXPECT_FALSE(plan.independent());
    EXPECT_EQ(plan.ctaCount(), 0u);
}

TEST(SlicingAnalysis, SharedReadOnlyInputStaysIndependent)
{
    // Both CTAs read the same input word (param-passed address) but
    // write disjoint outputs -- shared read-only data must not break
    // independence, yet it must appear in both CTAs' store hazards.
    GridKernel k(R"(
        ld.param.u32 $r1, [0]
        ld.param.u32 $r2, [4]
        ld.global.u32 $r3, [$r2]
        cvt.u32.u16 $r4, %ctaid.x
        add.u32 $r5, $r3, $r4
        shl.u32 $r6, $r4, 0x00000002
        add.u32 $r6, $r1, $r6
        st.global.u32 [$r6], $r5
        retp
    )",
                 {2, 1, 1}, {1, 1, 1}, 2);
    std::uint64_t input = k.memory.allocate(4);
    k.memory.pokeU32(input, 100);
    k.launch.params.addU32(static_cast<std::uint32_t>(input));

    TraceOptions opts;
    opts.ctaFootprints = true;
    auto result = k.run(&opts);
    ASSERT_EQ(result.status, RunStatus::Completed);
    EXPECT_EQ(k.memory.peekU32(k.out), 100u);
    EXPECT_EQ(k.memory.peekU32(k.out + 4), 101u);

    auto plan =
        faults::SlicingPlan::analyze(std::move(result.trace.ctaFootprints),
                                     k.memory);
    ASSERT_TRUE(plan.independent()) << plan.reason();

    // The shared input word is read by the *other* CTA too, so a
    // faulty store there must trigger a hazard for either CTA.
    EXPECT_TRUE(plan.storeHazards(0).containsRange(input, input + 4));
    EXPECT_TRUE(plan.storeHazards(1).containsRange(input, input + 4));
    // But loading it is harmless: nobody writes it.
    EXPECT_FALSE(plan.loadHazards(0).intersectsRange(input, input + 4));
    EXPECT_FALSE(plan.loadHazards(1).intersectsRange(input, input + 4));
}

} // namespace
} // namespace fsp
