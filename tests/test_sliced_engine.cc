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
 * writes, so the sliced run must abort on the store hazard and the
 * injector must replay it on the full grid.
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

TEST(SlicedEngine, StoreHazardFallsBackToFullGrid)
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

    // The address-register fault: sliced attempt aborts, full grid
    // classifies.  out becomes [6, 0] vs golden [5, 6] -> SDC.
    ASSERT_EQ(injector.inject({1, 3, 2}), Outcome::SDC);
    EXPECT_EQ(injector.stats().hazardFallbacks, 1u);
    EXPECT_EQ(injector.stats().fullGridRuns, 1u);
    EXPECT_EQ(injector.stats().injections, 2u);
    // One injection, two executor runs -- but runsPerformed() counts
    // injections, matching the serial campaign contract.
    EXPECT_EQ(injector.runsPerformed(), 2u);

    // The fallback classification matches a slicing-disabled injector.
    Injector full(k.program, k.launch, k.memory, k.outputs,
                  InjectorOptions{.slicing = false});
    EXPECT_EQ(full.inject({1, 3, 2}), Outcome::SDC);
    EXPECT_EQ(full.stats().hazardFallbacks, 0u);
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
