/**
 * @file
 * Unit tests for the fault model: Eq. 1 enumeration vs brute force,
 * uniform site sampling, outcome classification (masked / SDC / crash /
 * hang), output comparison tolerances, and the Eq. 2-4 sample sizing
 * that reproduces the paper's Table II numbers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "reference_campaign.hh"
#include "faults/fault_space.hh"
#include "faults/injector.hh"
#include "faults/sampling.hh"
#include "sim_test_util.hh"

namespace fsp {
namespace {

using test::MiniKernel;

/** A 2-thread kernel with known per-thread fault bits. */
const char *kTwoThreadSource = R"(
    ld.param.u32 $r1, [0]         // 32 bits
    cvt.u32.u16 $r2, %tid.x       // 32
    set.eq.u32.u32 $p0|$o127, $r2, 0x00000000  // 4
    @$p0.ne retp                  // 0
    mov.u32 $r3, 0x00000001       // 32 (thread 1 only)
    shl.u32 $r4, $r2, 0x00000002  // 32 (thread 1 only)
    add.u32 $r4, $r1, $r4         // 32 (thread 1 only)
    st.global.u32 [$r4], $r3      // 0
    retp
)";

TEST(FaultSpace, Equation1MatchesHandCount)
{
    MiniKernel k(kTwoThreadSource, 8, 2);
    sim::Executor executor(k.program(), k.launchConfig());
    faults::FaultSpace space(executor, k.memory());
    // Thread 0: 32+32+4 = 68; thread 1: 68 + 3*32 = 164.
    EXPECT_EQ(space.threadCount(), 2u);
    EXPECT_EQ(space.profiles()[0].faultBits, 68u);
    EXPECT_EQ(space.profiles()[1].faultBits, 164u);
    EXPECT_EQ(space.totalSites(), 232u);
    EXPECT_EQ(space.totalDynInstrs(), 4u + 9u);
}

TEST(FaultSpace, ThreadSitesEnumerateEveryBit)
{
    MiniKernel k(kTwoThreadSource, 8, 2);
    sim::Executor executor(k.program(), k.launchConfig());
    faults::FaultSpace space(executor, k.memory());

    sim::TraceOptions opts;
    opts.traceThreads.insert(1);
    sim::GlobalMemory scratch = k.memory();
    auto result = executor.run(scratch, &opts);
    auto sites = space.threadSites(1, result.trace.dynTraces.at(1));
    EXPECT_EQ(sites.size(), 164u);
    // Sites reference only dest-writing instructions with valid bits.
    for (const auto &site : sites) {
        EXPECT_EQ(site.thread, 1u);
        EXPECT_LT(site.bit, 32u);
    }
}

TEST(FaultSpace, SampleSitesUniformAndValid)
{
    MiniKernel k(kTwoThreadSource, 8, 2);
    sim::Executor executor(k.program(), k.launchConfig());
    faults::FaultSpace space(executor, k.memory());

    Prng prng(3);
    auto sites = space.sampleSites(2000, prng);
    ASSERT_EQ(sites.size(), 2000u);

    std::map<std::uint64_t, unsigned> per_thread;
    for (const auto &site : sites) {
        per_thread[site.thread]++;
        ASSERT_LT(site.thread, 2u);
    }
    // Thread 1 holds 164/232 = 70.7% of the space.
    double t1 = per_thread[1] / 2000.0;
    EXPECT_NEAR(t1, 164.0 / 232.0, 0.04);

    // Deterministic for the same seed.
    Prng prng2(3);
    auto sites2 = space.sampleSites(2000, prng2);
    ASSERT_EQ(sites2.size(), sites.size());
    for (std::size_t i = 0; i < sites.size(); ++i)
        EXPECT_TRUE(sites[i] == sites2[i]);
}

/** Kernel computing out[0] = 40 + 2 via registers (for injection). */
const char *kInjectSource = R"(
    ld.param.u32 $r1, [0]
    mov.u32 $r2, 0x00000028
    mov.u32 $r3, 0x00000002
    add.u32 $r4, $r2, $r3
    st.global.u32 [$r1], $r4
    mov.u32 $r5, 0x00000063    // dead value: masked when flipped
    retp
)";

class InjectorTest : public ::testing::Test
{
  protected:
    InjectorTest() : kernel_(kInjectSource)
    {
        config_ = kernel_.launchConfig();
        outputs_.push_back({"out", kernel_.outAddr(), 4,
                            faults::ElemType::U32, 0.0});
    }

    MiniKernel kernel_;
    sim::LaunchConfig config_;
    std::vector<faults::OutputRegion> outputs_;
};

TEST_F(InjectorTest, ClassifiesMaskedAndSdc)
{
    faults::Injector injector(kernel_.program(), config_, kernel_.memory(),
                              outputs_);
    // Flip a bit of the dead mov -> masked.
    EXPECT_EQ(injector.inject({0, 5, 3}), faults::Outcome::Masked);
    // Flip a bit of the add result -> SDC.
    EXPECT_EQ(injector.inject({0, 3, 0}), faults::Outcome::SDC);
    // Flip bit 1 of "2" (instruction 2): 2 -> 0; 40+0 != 42 -> SDC.
    EXPECT_EQ(injector.inject({0, 2, 1}), faults::Outcome::SDC);
    EXPECT_EQ(injector.runsPerformed(), 3u);
}

TEST_F(InjectorTest, ClassifiesCrash)
{
    faults::Injector injector(kernel_.program(), config_, kernel_.memory(),
                              outputs_);
    // Flip a high bit of the output pointer -> wild store -> crash.
    EXPECT_EQ(injector.inject({0, 0, 23}), faults::Outcome::Other);
}

TEST_F(InjectorTest, InjectionsAreIndependent)
{
    faults::Injector injector(kernel_.program(), config_, kernel_.memory(),
                              outputs_);
    // An SDC-producing injection must not contaminate later runs.
    EXPECT_EQ(injector.inject({0, 3, 0}), faults::Outcome::SDC);
    EXPECT_EQ(injector.inject({0, 5, 3}), faults::Outcome::Masked);
    EXPECT_EQ(injector.inject({0, 3, 0}), faults::Outcome::SDC);
}

TEST_F(InjectorTest, CloneStatsAreIsolated)
{
    faults::Injector injector(kernel_.program(), config_, kernel_.memory(),
                              outputs_);
    EXPECT_EQ(injector.inject({0, 3, 0}), faults::Outcome::SDC);
    EXPECT_EQ(injector.stats().injections, 1u);

    // A clone starts from zeroed stats, not a copy of the prototype's.
    auto clone = injector.clone();
    EXPECT_EQ(clone->stats().injections, 0u);
    EXPECT_EQ(clone->runsPerformed(), 0u);

    // Runs tally into exactly one injector, in either direction.
    EXPECT_EQ(clone->inject({0, 5, 3}), faults::Outcome::Masked);
    EXPECT_EQ(clone->stats().injections, 1u);
    EXPECT_EQ(injector.stats().injections, 1u);
    EXPECT_EQ(injector.inject({0, 3, 0}), faults::Outcome::SDC);
    EXPECT_EQ(injector.stats().injections, 2u);
    EXPECT_EQ(clone->stats().injections, 1u);
}

TEST(InjectionStats, MergeAndSinceCoverEveryField)
{
    // Every counter gets a distinct value, so a field skipped by
    // merge() or since() shows up as a wrong sum here (and the
    // struct-size static_assert in injector.cc catches fields added
    // without updating them).
    faults::InjectionStats a;
    a.injections = 1;
    a.slicedRuns = 2;
    a.fullGridRuns = 3;
    a.hazardFallbacks = 4;
    a.invalidSites = 5;
    a.executedCtas = 6;
    a.restoredBytes = 7;
    a.checkpointRestores = 8;
    a.skippedDynInstrs = 9;
    a.detectedFaults = 10;
    a.hazardLoadsInSlice = 11;
    a.closureRuns = 12;
    a.closureCtas = 13;

    faults::InjectionStats sum = a;
    sum.merge(a);
    EXPECT_EQ(sum.injections, 2u);
    EXPECT_EQ(sum.slicedRuns, 4u);
    EXPECT_EQ(sum.fullGridRuns, 6u);
    EXPECT_EQ(sum.hazardFallbacks, 8u);
    EXPECT_EQ(sum.invalidSites, 10u);
    EXPECT_EQ(sum.executedCtas, 12u);
    EXPECT_EQ(sum.restoredBytes, 14u);
    EXPECT_EQ(sum.checkpointRestores, 16u);
    EXPECT_EQ(sum.skippedDynInstrs, 18u);
    EXPECT_EQ(sum.detectedFaults, 20u);
    EXPECT_EQ(sum.hazardLoadsInSlice, 22u);
    EXPECT_EQ(sum.closureRuns, 24u);
    EXPECT_EQ(sum.closureCtas, 26u);

    faults::InjectionStats delta = sum.since(a);
    EXPECT_EQ(delta.injections, a.injections);
    EXPECT_EQ(delta.slicedRuns, a.slicedRuns);
    EXPECT_EQ(delta.fullGridRuns, a.fullGridRuns);
    EXPECT_EQ(delta.hazardFallbacks, a.hazardFallbacks);
    EXPECT_EQ(delta.invalidSites, a.invalidSites);
    EXPECT_EQ(delta.executedCtas, a.executedCtas);
    EXPECT_EQ(delta.restoredBytes, a.restoredBytes);
    EXPECT_EQ(delta.checkpointRestores, a.checkpointRestores);
    EXPECT_EQ(delta.skippedDynInstrs, a.skippedDynInstrs);
    EXPECT_EQ(delta.detectedFaults, a.detectedFaults);
    EXPECT_EQ(delta.hazardLoadsInSlice, a.hazardLoadsInSlice);
    EXPECT_EQ(delta.closureRuns, a.closureRuns);
    EXPECT_EQ(delta.closureCtas, a.closureCtas);

    // The one-line rendering includes the replay counters.
    EXPECT_NE(a.summary().find("ckpt-restores 8"), std::string::npos);
    EXPECT_NE(a.summary().find("skipped 9 instrs"), std::string::npos);
    EXPECT_NE(a.summary().find("hazard-loads-in-slice 11"),
              std::string::npos);
    EXPECT_NE(a.summary().find("closures 12 (13 ctas)"), std::string::npos);
}

TEST(Injector, ClassifiesHang)
{
    // A loop whose trip count register can be corrupted into (almost)
    // never terminating.
    MiniKernel k(R"(
        ld.param.u32 $r1, [0]
        mov.u32 $r2, 0x00000000
        loop:
        add.u32 $r2, $r2, 0x00000001
        set.eq.u32.u32 $p0|$o127, $r2, 0x00000004
        @$p0.eq bra loop            // loop while counter != 4
        st.global.u32 [$r1], $r2
        retp
    )");
    sim::LaunchConfig config = k.launchConfig();
    std::vector<faults::OutputRegion> outputs{
        {"out", k.outAddr(), 4, faults::ElemType::U32, 0.0}};
    faults::Injector injector(k.program(), config, k.memory(), outputs);
    // Flip bit 31 of the counter right before the final comparison:
    // the counter becomes huge... but wraps upward; the loop must run
    // ~2^31 more iterations, far beyond the budget -> hang.
    EXPECT_EQ(injector.inject({0, 2, 31}), faults::Outcome::Other);
}

TEST(OutputSpec, FloatToleranceControlsMatching)
{
    sim::GlobalMemory m(1 << 12);
    std::uint64_t addr = m.allocate(8);
    m.pokeF32(addr, 1.0f);
    m.pokeF32(addr + 4, 2.0f);

    std::vector<faults::OutputRegion> exact{
        {"r", addr, 8, faults::ElemType::F32, 0.0}};
    std::vector<faults::OutputRegion> loose{
        {"r", addr, 8, faults::ElemType::F32, 1e-3}};

    auto golden = faults::captureOutputs(m, exact);
    m.pokeF32(addr, 1.0000005f);
    auto test = faults::captureOutputs(m, exact);

    EXPECT_FALSE(faults::outputsMatch(exact, golden, test));
    EXPECT_TRUE(faults::outputsMatch(loose, golden, test));

    // NaN never matches, even loosely.
    m.pokeF32(addr, std::nanf(""));
    auto nan_test = faults::captureOutputs(m, exact);
    EXPECT_FALSE(faults::outputsMatch(loose, golden, nan_test));
}

TEST(Sampling, Equation4ReproducesTable2)
{
    // Paper Table II: 99.8% CI with 0.63% error -> ~60K runs; 95% CI
    // with 3% error -> ~1K runs.
    EXPECT_NEAR(static_cast<double>(
                    faults::requiredSamplesWorstCase(0.998, 0.0063)),
                60181.0, 160.0);
    EXPECT_NEAR(static_cast<double>(
                    faults::requiredSamplesWorstCase(0.95, 0.03)),
                1062.0, 10.0);
}

TEST(Sampling, Equation2ConvergesToEquation3)
{
    double t = 1.96, e = 0.03, p = 0.5;
    double inf = faults::requiredSamplesInfinite(e, t, p);
    EXPECT_NEAR(inf, t * t / (e * e) * 0.25, 1e-9);
    // Finite-population sizes increase towards the infinite limit.
    double n1 = faults::requiredSamplesFinite(1e4, e, t, p);
    double n2 = faults::requiredSamplesFinite(1e7, e, t, p);
    double n3 = faults::requiredSamplesFinite(1e10, e, t, p);
    EXPECT_LT(n1, n2);
    EXPECT_LT(n2, n3);
    EXPECT_LT(n3, inf);
    EXPECT_NEAR(n3, inf, 1.0);
}

TEST(Sampling, WorstCaseIsMaximalOverP)
{
    double t = 1.96, e = 0.03;
    double worst = static_cast<double>(
        faults::requiredSamplesWorstCase(0.95, e));
    for (double p : {0.1, 0.3, 0.5, 0.7, 0.9}) {
        EXPECT_LE(faults::requiredSamplesInfinite(e, t, p),
                  worst + 1.0);
    }
}

TEST(OutcomeDist, WeightedTally)
{
    faults::OutcomeDist dist;
    dist.add(faults::Outcome::Masked, 3.0);
    dist.add(faults::Outcome::SDC, 1.0);
    dist.addWeight(faults::Outcome::Masked, 2.0);
    EXPECT_DOUBLE_EQ(dist.total(), 6.0);
    EXPECT_EQ(dist.runs(), 2u);
    EXPECT_NEAR(dist.fraction(faults::Outcome::Masked), 5.0 / 6.0, 1e-12);
    auto f = dist.fractions();
    EXPECT_NEAR(f[0] + f[1] + f[2], 1.0, 1e-12);

    faults::OutcomeDist other;
    other.add(faults::Outcome::Other, 4.0);
    dist.merge(other);
    EXPECT_DOUBLE_EQ(dist.total(), 10.0);
    EXPECT_EQ(dist.runs(), 3u);
}

TEST(Campaign, SiteListAndWeightedSiteList)
{
    MiniKernel k(kInjectSource);
    sim::LaunchConfig config = k.launchConfig();
    std::vector<faults::OutputRegion> outputs{
        {"out", k.outAddr(), 4, faults::ElemType::U32, 0.0}};
    faults::Injector injector(k.program(), config, k.memory(), outputs);

    std::vector<faults::FaultSite> sites{{0, 5, 0}, {0, 3, 0}};
    auto plain = faults::reference::runSiteList(injector, sites);
    EXPECT_EQ(plain.runs, 2u);
    EXPECT_DOUBLE_EQ(plain.dist.weightOf(faults::Outcome::Masked), 1.0);
    EXPECT_DOUBLE_EQ(plain.dist.weightOf(faults::Outcome::SDC), 1.0);

    std::vector<faults::WeightedSite> weighted{{{0, 5, 0}, 10.0},
                                               {{0, 3, 0}, 1.0}};
    auto w = faults::reference::runWeightedSiteList(injector, weighted);
    EXPECT_DOUBLE_EQ(w.dist.weightOf(faults::Outcome::Masked), 10.0);
    EXPECT_DOUBLE_EQ(w.dist.weightOf(faults::Outcome::SDC), 1.0);
}

} // namespace
} // namespace fsp
