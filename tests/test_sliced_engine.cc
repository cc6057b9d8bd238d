/**
 * @file
 * Equivalence and behaviour tests for the CTA-sliced injection engine.
 *
 * The engine's contract is that slicing is a pure optimisation: for
 * every registered kernel, classifying the same site list with the
 * sliced path permitted must produce outcome distributions
 * bit-identical to an injector built with slicing off -- serially and
 * through the parallel campaign engine at workers {2, 4, 8}.
 * Additional tests pin the hazard-fallback path, fault-site
 * validation, and the sliced profiling run of the pruning pipeline.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/analyzer.hh"
#include "apps/app.hh"
#include "reference_campaign.hh"
#include "faults/fault_space.hh"
#include "faults/injector.hh"
#include "faults/campaign_engine.hh"
#include "ptx/assembler.hh"
#include "util/logging.hh"
#include "util/prng.hh"

namespace fsp {
namespace {

using namespace faults;

/** Exact (bit-identical) distribution comparison. */
void
expectSameDist(const OutcomeDist &a, const OutcomeDist &b)
{
    EXPECT_EQ(a.runs(), b.runs());
    for (Outcome o : {Outcome::Masked, Outcome::SDC, Outcome::Other,
                      Outcome::Invalid})
        EXPECT_EQ(a.weightOf(o), b.weightOf(o)) << outcomeName(o);
}

/** A second injector for @p setup built with slicing off. */
std::unique_ptr<Injector>
fullGridInjector(const apps::KernelSetup &setup)
{
    return std::make_unique<Injector>(setup.program, setup.launch,
                                      setup.memory, setup.outputs,
                                      InjectorOptions{.slicing = false});
}

TEST(SlicedEquivalence, EveryKernelSerialAndParallel)
{
    fsp::setVerboseLogging(false);
    for (const apps::KernelSpec &spec : apps::allKernels()) {
        SCOPED_TRACE(spec.fullName());
        apps::KernelSetup setup = spec.setup(apps::Scale::Small, 42);
        sim::Executor executor(setup.program, setup.launch);
        FaultSpace space(executor, setup.memory);
        Prng prng(1234);
        auto sites = space.sampleSites(16, prng);

        Injector prototype(setup.program, setup.launch, setup.memory,
                           setup.outputs);

        // Serial: sliced engine vs forced full-grid, site by site.
        auto sliced = prototype.clone();
        auto full = fullGridInjector(setup);
        EXPECT_FALSE(full->slicingActive());
        CampaignResult sliced_result = reference::runSiteList(*sliced, sites);
        CampaignResult full_result = reference::runSiteList(*full, sites);
        expectSameDist(sliced_result.dist, full_result.dist);
        EXPECT_EQ(sliced_result.runs, full_result.runs);
        EXPECT_EQ(full_result.injection.slicedRuns, 0u);

        // Parallel engine with slicing allowed vs the serial full-grid
        // tally, at several worker counts.
        for (unsigned workers : {2u, 4u, 8u}) {
            SCOPED_TRACE(workers);
            CampaignOptions options;
            options.workers = workers;
            CampaignEngine engine(prototype, options);
            CampaignResult par = engine.run(sites);
            expectSameDist(par.dist, full_result.dist);
            EXPECT_EQ(par.runs, full_result.runs);
        }
    }
}

TEST(SlicedEquivalence, WeightedCampaignMatchesBitExactly)
{
    fsp::setVerboseLogging(false);
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    ASSERT_NE(spec, nullptr);
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    sim::Executor executor(setup.program, setup.launch);
    FaultSpace space(executor, setup.memory);
    Prng prng(77);
    auto plain = space.sampleSites(24, prng);
    std::vector<WeightedSite> sites;
    for (std::size_t i = 0; i < plain.size(); ++i)
        sites.push_back({plain[i], 1.0 + 0.125 * static_cast<double>(i)});

    Injector prototype(setup.program, setup.launch, setup.memory,
                       setup.outputs);
    ASSERT_TRUE(prototype.slicingActive());

    auto sliced = prototype.clone();
    auto full = fullGridInjector(setup);
    CampaignResult a = reference::runWeightedSiteList(*sliced, sites);
    CampaignResult b = reference::runWeightedSiteList(*full, sites);
    expectSameDist(a.dist, b.dist);

    // The sliced engine must have actually sliced (not silently fallen
    // back everywhere), or this test proves nothing.
    EXPECT_GT(a.injection.slicedRuns, 0u);
    EXPECT_LT(a.injection.executedCtas, b.injection.executedCtas);

    for (unsigned workers : {2u, 4u, 8u}) {
        CampaignOptions options;
        options.workers = workers;
        CampaignEngine engine(prototype, options);
        CampaignResult par = engine.run(sites);
        expectSameDist(par.dist, b.dist);
        EXPECT_GT(par.injection.slicedRuns, 0u);
    }
}

TEST(SlicedEngine, GemmIsSlicedAndCheaper)
{
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    ASSERT_NE(spec, nullptr);
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    Injector injector(setup.program, setup.launch, setup.memory,
                      setup.outputs);

    EXPECT_TRUE(injector.slicingPlan().independent())
        << injector.slicingPlan().reason();
    EXPECT_TRUE(injector.slicingActive());
    EXPECT_NE(injector.slicingDescription().find("sliced"),
              std::string::npos);

    // One sliced injection executes exactly one of the four CTAs.
    ASSERT_EQ(injector.inject({0, 40, 7}), Outcome::SDC);
    EXPECT_EQ(injector.stats().slicedRuns, 1u);
    EXPECT_EQ(injector.stats().executedCtas, 1u);
    EXPECT_EQ(injector.executor().config().grid.count(), 4u);
}

TEST(SlicedEngine, DisablingSlicingForcesFullGrid)
{
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    Injector injector(setup.program, setup.launch, setup.memory,
                      setup.outputs, InjectorOptions{.slicing = false});
    EXPECT_FALSE(injector.slicingActive());
    EXPECT_NE(injector.slicingDescription().find("full-grid"),
              std::string::npos);

    ASSERT_EQ(injector.inject({0, 40, 7}), Outcome::SDC);
    EXPECT_EQ(injector.stats().slicedRuns, 0u);
    EXPECT_EQ(injector.stats().fullGridRuns, 1u);
    EXPECT_EQ(injector.stats().executedCtas, 4u);
}

/**
 * Two CTAs, one thread each; CTA c computes &out[c] and stores c + 5.
 * Flipping bit 2 of thread 1's address register (dyn index 3) redirects
 * its store from out[1] (0x...4) to out[0] (0x...0) -- a byte CTA 0
 * writes.  CTA 0 runs first in the full grid and never reads out[0],
 * so CTA 1's value stands there and the site classifies in-slice.
 */
struct HazardKernel
{
    sim::Program program;
    sim::GlobalMemory memory{1u << 16};
    sim::LaunchConfig launch;
    std::uint64_t out;
    std::vector<OutputRegion> outputs;

    HazardKernel() : program(ptx::assemble("hazard", R"(
        ld.param.u32 $r1, [0]
        cvt.u32.u16 $r2, %ctaid.x
        shl.u32 $r3, $r2, 0x00000002
        add.u32 $r3, $r1, $r3
        add.u32 $r4, $r2, 0x00000005
        st.global.u32 [$r3], $r4
        retp
    )"))
    {
        out = memory.allocate(8);
        launch.grid = {2, 1, 1};
        launch.block = {1, 1, 1};
        launch.params.addU32(static_cast<std::uint32_t>(out));
        outputs.push_back({"out", out, 8, ElemType::U32, 0.0});
    }
};

TEST(SlicedEngine, StoreHazardIntoEarlierWriterClassifiesInSlice)
{
    HazardKernel k;
    Injector injector(k.program, k.launch, k.memory, k.outputs);
    ASSERT_TRUE(injector.slicingPlan().independent())
        << injector.slicingPlan().reason();

    // Sanity: an unfaulted site in CTA 1 stays sliced and masked-free
    // of fallbacks (bit 0 of the store *value* register -> SDC).
    ASSERT_EQ(injector.inject({1, 4, 0}), Outcome::SDC);
    EXPECT_EQ(injector.stats().slicedRuns, 1u);
    EXPECT_EQ(injector.stats().hazardFallbacks, 0u);

    // The address-register fault: the store hazard is resolved in the
    // slice.  out becomes [6, 0] vs golden [5, 6] -> SDC.
    ASSERT_EQ(injector.inject({1, 3, 2}), Outcome::SDC);
    EXPECT_EQ(injector.stats().hazardFallbacks, 0u);
    EXPECT_EQ(injector.stats().fullGridRuns, 0u);
    EXPECT_EQ(injector.stats().slicedRuns, 2u);
    EXPECT_EQ(injector.stats().injections, 2u);
    EXPECT_EQ(injector.runsPerformed(), 2u);

    // The in-slice classification matches a slicing-disabled injector.
    Injector full(k.program, k.launch, k.memory, k.outputs,
                  InjectorOptions{.slicing = false});
    EXPECT_EQ(full.inject({1, 3, 2}), Outcome::SDC);
    EXPECT_EQ(full.stats().hazardFallbacks, 0u);
}

/**
 * A kernel of one-thread CTAs over buffers placed back to back from
 * the start of global memory (0x1000), each passed as a u32 param in
 * order.  Every buffer starts from a distinct sentinel near 2^30, far
 * from the kernels' results, so an element that wrongly holds a
 * pristine value (or wrongly does not) lands in another SDC magnitude
 * bucket.
 */
struct CrossCtaKernel
{
    sim::Program program;
    sim::GlobalMemory memory{1u << 18};
    sim::LaunchConfig launch;
    std::vector<OutputRegion> outputs;
    std::vector<std::uint64_t> buffers;

    /**
     * @param buffers (bytes, is-output) per buffer, in param order.
     * @param inputs initial u32 values of the first buffer.
     */
    CrossCtaKernel(const char *source, std::uint32_t ctas,
                   std::vector<std::pair<std::uint64_t, bool>> layout,
                   std::vector<std::uint32_t> inputs = {})
        : program(ptx::assemble("cross_cta", source))
    {
        launch.grid = {ctas, 1, 1};
        launch.block = {1, 1, 1};
        for (const auto &[bytes, is_output] : layout) {
            const std::uint64_t addr = memory.allocate(bytes, 4);
            for (std::uint64_t w = 0; w < bytes / 4; ++w)
                memory.pokeU32(addr + 4 * w,
                               0x40000000u + static_cast<std::uint32_t>(
                                                 addr + 4 * w));
            buffers.push_back(addr);
            launch.params.addU32(static_cast<std::uint32_t>(addr));
            if (is_output) {
                outputs.push_back({"buf" + std::to_string(buffers.size()),
                                   addr, bytes, ElemType::U32, 0.0});
            }
        }
        for (std::size_t i = 0; i < inputs.size(); ++i)
            memory.pokeU32(buffers.front() + 4 * i, inputs[i]);
        memory.resetDirtyTracking();
    }
};

/**
 * Classify @p site with the default strategy and check it against
 * injectors built with slicing off and with checkpoints off: the
 * outcome and the InjectionDetail (static index and SDC anatomy) must
 * agree.  Runs once at the default capture interval and once with a
 * capture point at every instruction, so the checkpointed sliced path
 * (and its chunk-granular deltas) is exercised too.
 *
 * @return the default injectors' path counters, summed over both runs.
 */
InjectionStats
expectExactAcrossStrategies(const CrossCtaKernel &k, const FaultSite &site,
                            Outcome expected)
{
    InjectionStats total;
    for (std::uint64_t min_interval : {std::uint64_t{256}, std::uint64_t{1}}) {
        SCOPED_TRACE(min_interval);
        InjectorOptions fast;
        fast.checkpointing.minInterval = min_interval;
        InjectorOptions no_slicing = fast;
        no_slicing.slicing = false;
        InjectorOptions no_checkpoints = fast;
        no_checkpoints.checkpoints = false;

        Injector injector(k.program, k.launch, k.memory, k.outputs, fast);
        EXPECT_TRUE(injector.slicingActive())
            << injector.slicingPlan().reason();
        if (min_interval == 1) {
            EXPECT_TRUE(injector.checkpointsActive());
        }
        Injector full(k.program, k.launch, k.memory, k.outputs, no_slicing);
        Injector from_start(k.program, k.launch, k.memory, k.outputs,
                            no_checkpoints);

        InjectionDetail got, want_full, want_from_start;
        EXPECT_EQ(injector.inject(site, &got), expected);
        EXPECT_EQ(full.inject(site, &want_full), expected);
        EXPECT_EQ(from_start.inject(site, &want_from_start), expected);
        EXPECT_EQ(got, want_full);
        EXPECT_EQ(got, want_from_start);
        EXPECT_EQ(full.stats().slicedRuns, 0u);
        total.merge(injector.stats());
    }
    return total;
}

/**
 * Four CTAs: CTA c writes a marker to out[2c+1], then out[2c] =
 * in[c] + 1.  in sits at 0x1000 (16 bytes), out at 0x1010 (32
 * bytes), so CTA c owns out bytes [8c, 8c + 8).  A flip of the in[c]
 * address register (dyn index 7) makes the load read out instead:
 * bit 4 moves it by +0x10, bit 5 by +0x20.
 */
const char *kLoadKernel = R"(
    ld.param.u32 $r1, [0]
    ld.param.u32 $r5, [4]
    cvt.u32.u16 $r2, %ctaid.x
    shl.u32 $r3, $r2, 0x00000003
    add.u32 $r7, $r5, $r3
    st.global.u32 [$r7+4], $r2
    shl.u32 $r3, $r2, 0x00000002
    add.u32 $r6, $r1, $r3
    ld.global.u32 $r4, [$r6]
    add.u32 $r4, $r4, 0x00000001
    st.global.u32 [$r7], $r4
    retp
)";

CrossCtaKernel
loadKernel()
{
    return CrossCtaKernel(kLoadKernel, 4, {{16, false}, {32, true}},
                          {1000000, 1000010, 1000020, 1000030});
}

TEST(SlicedHazards, LoadFromEarlierWriterReadsItsGoldenResult)
{
    // CTA 2 loads out[2] (0x1018), CTA 1's result: the full grid ran
    // CTA 1 first, so the load sees 1000011 and out[4] is off by 9
    // (the pristine sentinel would put it off by ~2^30).
    const CrossCtaKernel k = loadKernel();
    const InjectionStats stats =
        expectExactAcrossStrategies(k, {2, 7, 4}, Outcome::SDC);
    EXPECT_EQ(stats.slicedRuns, 2u);
    EXPECT_EQ(stats.hazardLoadsInSlice, 2u);
    EXPECT_EQ(stats.hazardFallbacks, 0u);
    EXPECT_EQ(stats.closureRuns, 0u);
    EXPECT_EQ(stats.executedCtas, 2u);
}

TEST(SlicedHazards, LoadFromLaterWriterReadsThePristineImage)
{
    // CTA 0 loads out[4] (0x1020), which CTA 2 writes only later: the
    // full grid sees the pristine sentinel there (CTA 2's golden
    // 1000021 would put out[0] off by only 21).
    const CrossCtaKernel k = loadKernel();
    const InjectionStats stats =
        expectExactAcrossStrategies(k, {0, 7, 5}, Outcome::SDC);
    EXPECT_EQ(stats.slicedRuns, 2u);
    EXPECT_EQ(stats.hazardLoadsInSlice, 2u);
    EXPECT_EQ(stats.hazardFallbacks, 0u);
    EXPECT_EQ(stats.closureRuns, 0u);
}

TEST(SlicedHazards, ResolverServesGoldenPristineAndOwnStores)
{
    const CrossCtaKernel k = loadKernel();
    Injector injector(k.program, k.launch, k.memory, k.outputs);
    const SlicingPlan &plan = injector.slicingPlan();
    const std::uint64_t out = k.buffers[1];

    // Earlier writer: golden final value; later writer: pristine.
    HazardResolver cta2(plan, injector.image(), {2});
    std::uint64_t value = 0;
    ASSERT_TRUE(cta2.load(2, out + 8, 4, value));
    EXPECT_EQ(value, 1000011u);
    HazardResolver cta0(plan, injector.image(), {0});
    value = 0;
    ASSERT_TRUE(cta0.load(0, out + 16, 4, value));
    EXPECT_EQ(value, k.memory.peekU32(out + 16));
    EXPECT_TRUE(cta0.servedLoads());

    // The run's own store stands for the rest of the run: the value
    // handed in (read from the run's image) is kept.
    ASSERT_TRUE(cta0.store(0, out + 16, 4));
    value = 77;
    ASSERT_TRUE(cta0.load(0, out + 16, 4, value));
    EXPECT_EQ(value, 77u);
    // ... but CTA 1 writes out[2] after CTA 0's store, so a later
    // closure member would read CTA 1's golden result there.
    ASSERT_TRUE(cta0.store(0, out + 8, 4));
    EXPECT_TRUE(cta0.laterReaders().empty()); // nobody reads out
    HazardResolver run(plan, injector.image(), {0, 3});
    ASSERT_TRUE(run.store(0, out + 8, 4));
    value = 77;
    ASSERT_TRUE(run.load(3, out + 8, 4, value));
    EXPECT_EQ(value, 1000011u);
}

/**
 * Four CTAs: CTA c stores c + 7 through an address register (dyn
 * index 4) to out[2c], reloads it, and stores reload + 1 to
 * out[2c+1].  Flipping bit 3 of the address moves it by 8 bytes, into
 * the neighbouring CTA's out[2c'] -- a byte that CTA both writes and
 * reads.
 */
const char *kReloadKernel = R"(
    ld.param.u32 $r1, [0]
    cvt.u32.u16 $r2, %ctaid.x
    shl.u32 $r3, $r2, 0x00000003
    add.u32 $r7, $r1, $r3
    add.u32 $r4, $r1, $r3
    add.u32 $r5, $r2, 0x00000007
    st.global.u32 [$r4], $r5
    ld.global.u32 $r6, [$r4]
    add.u32 $r6, $r6, 0x00000001
    st.global.u32 [$r7+4], $r6
    retp
)";

TEST(SlicedHazards, LoadAfterOwnStoreToHazardByteSeesTheStore)
{
    // CTA 1 stores 8 into out[0] (CTA 0's, written and read earlier)
    // and reloads it: the reload must see 8, not CTA 0's golden 7.
    const CrossCtaKernel k(kReloadKernel, 4, {{32, true}});
    const InjectionStats stats =
        expectExactAcrossStrategies(k, {1, 4, 3}, Outcome::SDC);
    EXPECT_EQ(stats.slicedRuns, 2u);
    EXPECT_EQ(stats.hazardLoadsInSlice, 2u);
    EXPECT_EQ(stats.hazardFallbacks, 0u);
    EXPECT_EQ(stats.closureRuns, 0u);
}

/**
 * Four CTAs: out[c] = in[c] + 1, with out at 0x1000 (16 bytes), 8
 * pad bytes, and in at 0x1018 (16 bytes).  The out[c] address (dyn
 * index 6) can be flipped: bit 3 of CTA 2's moves it to out[0] (CTA
 * 0's write-only byte), bit 3 of CTA 0's to out[2], and bit 5 of CTA
 * 1's to in[3], which CTA 3 reads.
 */
const char *kStoreKernel = R"(
    ld.param.u32 $r5, [0]
    ld.param.u32 $r1, [8]
    cvt.u32.u16 $r2, %ctaid.x
    shl.u32 $r3, $r2, 0x00000002
    add.u32 $r6, $r1, $r3
    ld.global.u32 $r4, [$r6]
    add.u32 $r8, $r5, $r3
    add.u32 $r4, $r4, 0x00000001
    st.global.u32 [$r8], $r4
    retp
)";

CrossCtaKernel
storeKernel()
{
    CrossCtaKernel k(kStoreKernel, 4, {{16, true}, {8, false}, {16, false}});
    for (std::uint32_t c = 0; c < 4; ++c)
        k.memory.pokeU32(k.buffers[2] + 4 * c, 1000 * (c + 1));
    k.memory.resetDirtyTracking();
    return k;
}

TEST(SlicedHazards, StoreIntoEarlierWriteOnlyByteStaysInSlice)
{
    // out[0] ends with CTA 2's value (3001) and out[2] pristine: two
    // corrupted elements, reconstructed exactly as the full grid.
    const CrossCtaKernel k = storeKernel();
    const InjectionStats stats =
        expectExactAcrossStrategies(k, {2, 6, 3}, Outcome::SDC);
    EXPECT_EQ(stats.slicedRuns, 2u);
    EXPECT_EQ(stats.hazardFallbacks, 0u);
    EXPECT_EQ(stats.closureRuns, 0u);
    EXPECT_EQ(stats.executedCtas, 2u);

    InjectionDetail detail;
    Injector injector(k.program, k.launch, k.memory, k.outputs);
    ASSERT_EQ(injector.inject({2, 6, 3}, &detail), Outcome::SDC);
    EXPECT_EQ(detail.anatomy.corruptedElements(), 2u);
}

TEST(SlicedHazards, StoreOverwrittenByLaterWriterEndsGolden)
{
    // CTA 0's value lands in out[2], which CTA 2 rewrites later: only
    // out[0] (left pristine) is corrupted.
    const CrossCtaKernel k = storeKernel();
    const InjectionStats stats =
        expectExactAcrossStrategies(k, {0, 6, 3}, Outcome::SDC);
    EXPECT_EQ(stats.slicedRuns, 2u);
    EXPECT_EQ(stats.hazardFallbacks, 0u);
    EXPECT_EQ(stats.closureRuns, 0u);

    InjectionDetail detail;
    Injector injector(k.program, k.launch, k.memory, k.outputs);
    ASSERT_EQ(injector.inject({0, 6, 3}, &detail), Outcome::SDC);
    EXPECT_EQ(detail.anatomy.corruptedElements(), 1u);
}

TEST(SlicedHazards, StoreIntoLaterReaderRunsAClosure)
{
    // CTA 1 writes 2001 into in[3], so CTA 3 computes 2002: the
    // closure {1, 3} re-runs both, and out[1] (pristine) and out[3]
    // are corrupted.  CTAs 0 and 2 never run.
    const CrossCtaKernel k = storeKernel();
    const InjectionStats stats =
        expectExactAcrossStrategies(k, {1, 6, 5}, Outcome::SDC);
    EXPECT_EQ(stats.slicedRuns, 2u);
    EXPECT_EQ(stats.hazardFallbacks, 0u);
    EXPECT_EQ(stats.closureRuns, 2u);
    EXPECT_EQ(stats.closureCtas, 4u);
    // Per run: the one-CTA attempt, then the two-CTA closure.
    EXPECT_EQ(stats.executedCtas, 6u);

    InjectionDetail detail;
    Injector injector(k.program, k.launch, k.memory, k.outputs);
    ASSERT_EQ(injector.inject({1, 6, 5}, &detail), Outcome::SDC);
    EXPECT_EQ(detail.anatomy.corruptedElements(), 2u);
    EXPECT_LT(injector.stats().closureCtas,
              injector.slicingPlan().ctaCount());
}

TEST(SlicedHazards, StoreLoopBeyondTheLogFallsBackToFullGrid)
{
    // CTA 1's address flips onto out[0] (CTA 0's) and 5000 loop
    // iterations store there -- more cross-CTA stores than a resolver
    // logs, so the site is replayed on the full grid.
    const CrossCtaKernel k(R"(
        ld.param.u32 $r1, [0]
        cvt.u32.u16 $r2, %ctaid.x
        shl.u32 $r3, $r2, 0x00000002
        add.u32 $r3, $r1, $r3
        mov.u32 $r4, 0x00000000
        loop:
        add.u32 $r4, $r4, 0x00000001
        st.global.u32 [$r3], $r4
        set.eq.u32.u32 $p0|$o127, $r4, 0x00001388
        @$p0.eq bra loop
        retp
    )",
                           2, {{8, true}});
    const InjectionStats stats =
        expectExactAcrossStrategies(k, {1, 3, 2}, Outcome::SDC);
    EXPECT_EQ(stats.slicedRuns, 0u);
    EXPECT_EQ(stats.hazardFallbacks, 2u);
    EXPECT_EQ(stats.fullGridRuns, 2u);
}

TEST(SlicedEngine, InvalidSitesAreReportedNotMasked)
{
    HazardKernel k;
    Injector injector(k.program, k.launch, k.memory, k.outputs);
    // Golden iCnt is 7 per thread; dyn index 7 can never fire.
    EXPECT_EQ(injector.inject({1, 7, 0}), Outcome::Invalid);
    // Thread id beyond the launch.
    EXPECT_EQ(injector.inject({2, 0, 0}), Outcome::Invalid);
    EXPECT_EQ(injector.stats().invalidSites, 2u);
    EXPECT_EQ(injector.stats().slicedRuns, 0u);
    EXPECT_EQ(injector.stats().fullGridRuns, 0u);
    // Invalid attempts still count as performed injections...
    EXPECT_EQ(injector.runsPerformed(), 2u);

    // ...and their weight stays outside the resilience profile.
    OutcomeDist dist;
    dist.add(Outcome::Masked);
    dist.add(Outcome::Invalid);
    EXPECT_EQ(dist.total(), 1.0);
    EXPECT_EQ(dist.fraction(Outcome::Masked), 1.0);
    EXPECT_EQ(dist.weightOf(Outcome::Invalid), 1.0);
    EXPECT_EQ(dist.runs(), 2u);
    EXPECT_NE(dist.summary().find("invalid"), std::string::npos);
}

TEST(SlicedEngine, CrashAndHangSitesMatchFullGridAfterRestore)
{
    // Crashes abort runs mid-write; the dirty-range restore must still
    // revert everything before the next (sliced) run, or outcomes
    // would leak across injections.
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    sim::Executor executor(setup.program, setup.launch);
    FaultSpace space(executor, setup.memory);
    Prng prng(99);
    auto sites = space.sampleSites(48, prng);

    Injector prototype(setup.program, setup.launch, setup.memory,
                       setup.outputs);
    auto sliced = prototype.clone();
    auto full = fullGridInjector(setup);

    bool saw_other = false;
    for (const auto &site : sites) {
        Outcome a = sliced->inject(site);
        Outcome b = full->inject(site);
        ASSERT_EQ(a, b) << "thread " << site.thread << " dyn "
                        << site.dynIndex << " bit " << site.bit;
        saw_other = saw_other || a == Outcome::Other;
    }
    // The sample is large enough to include crash/hang outcomes; if
    // this ever fails, enlarge the sample rather than dropping it.
    EXPECT_TRUE(saw_other);
}

TEST(SlicedPruning, SlicedProfilingMatchesFullProfiling)
{
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);
    ASSERT_TRUE(ka.slicingActive());
    analysis::AnalysisConfig no_slicing;
    no_slicing.engine.slicing = false;
    analysis::KernelAnalysis full(*spec, apps::Scale::Small, no_slicing);

    pruning::PruningConfig config;
    auto a = ka.prune(config);
    auto b = full.prune(config);

    EXPECT_TRUE(a.slicedProfiling);
    EXPECT_FALSE(b.slicedProfiling);
    EXPECT_LE(a.profiledCtas, ka.slicingPlan().ctaCount());
    EXPECT_GE(a.profiledCtas, 1u);
    EXPECT_EQ(b.profiledCtas, ka.slicingPlan().ctaCount());

    // Identical pruning output: same sites, same weights, bit for bit.
    EXPECT_EQ(a.counts.afterThread, b.counts.afterThread);
    EXPECT_EQ(a.counts.afterBit, b.counts.afterBit);
    EXPECT_EQ(a.assumedMaskedWeight, b.assumedMaskedWeight);
    ASSERT_EQ(a.sites.size(), b.sites.size());
    for (std::size_t i = 0; i < a.sites.size(); ++i) {
        EXPECT_EQ(a.sites[i].site, b.sites[i].site) << i;
        EXPECT_EQ(a.sites[i].weight, b.sites[i].weight) << i;
    }
}

TEST(SlicedPruning, AnalyzerDisableSwitchCoversBothPaths)
{
    const apps::KernelSpec *spec = apps::findKernel("MVT/K1");
    analysis::KernelAnalysis on(*spec, apps::Scale::Small);
    analysis::AnalysisConfig no_slicing;
    no_slicing.engine.slicing = false;
    analysis::KernelAnalysis off(*spec, apps::Scale::Small, no_slicing);
    EXPECT_FALSE(off.slicingActive());

    pruning::PruningConfig config;
    auto a = on.prune(config);
    auto b = off.prune(config);
    EXPECT_FALSE(b.slicedProfiling);

    auto da = on.runPrunedCampaign(a);
    auto db = off.runPrunedCampaign(b);
    expectSameDist(da, db);

    // Engines clone their prototype, strategy included: workers of an
    // injector built with both fast paths off run neither.
    const apps::KernelSetup &setup = on.setup();
    Injector bare(setup.program, setup.launch, setup.memory, setup.outputs,
                  InjectorOptions{.slicing = false, .checkpoints = false});
    CampaignOptions options;
    options.workers = 2;
    CampaignEngine engine(bare, options);
    EXPECT_FALSE(engine.slicingActive());
    EXPECT_FALSE(engine.checkpointsActive());
    expectSameDist(engine.run(a.sites).dist,
                   on.campaignEngine().run(a.sites).dist);
}

} // namespace
} // namespace fsp
