/**
 * @file
 * Determinism suite for the parallel campaign engine: for every
 * registered kernel, the parallel drivers must reproduce the serial
 * drivers' CampaignResult *exactly* -- run counts and the weighted
 * double accumulation bit-for-bit -- at every worker count and chunk
 * size, including degenerate shapes (empty list, fewer sites than
 * workers).
 */

#include <gtest/gtest.h>

#include <vector>

#include "analysis/analyzer.hh"
#include "apps/app.hh"
#include "reference_campaign.hh"
#include "faults/campaign_engine.hh"

namespace fsp {
namespace {

/** Worker/chunk shapes exercised per kernel (odd chunk sizes). */
struct Shape
{
    unsigned workers;
    std::size_t chunk; ///< 0 = auto
};

const Shape kShapes[] = {{1, 1}, {2, 3}, {4, 5}, {7, 3}, {8, 0}};

void
expectSameDist(const faults::OutcomeDist &serial,
               const faults::OutcomeDist &parallel)
{
    EXPECT_EQ(serial.runs(), parallel.runs());
    for (faults::Outcome o :
         {faults::Outcome::Masked, faults::Outcome::SDC,
          faults::Outcome::Other}) {
        // Exact (bit-identical) equality, not a tolerance: the engine
        // folds outcomes in site order, so the doubles must match.
        EXPECT_EQ(serial.weightOf(o), parallel.weightOf(o))
            << "outcome " << faults::outcomeName(o);
    }
}

void
expectSameResult(const faults::CampaignResult &serial,
                 const faults::CampaignResult &parallel)
{
    EXPECT_EQ(serial.runs, parallel.runs);
    expectSameDist(serial.dist, parallel.dist);
}

/** Weights chosen to expose any reordering of the double sums. */
std::vector<faults::WeightedSite>
weightSites(const std::vector<faults::FaultSite> &sites)
{
    std::vector<faults::WeightedSite> weighted;
    weighted.reserve(sites.size());
    for (std::size_t i = 0; i < sites.size(); ++i)
        weighted.push_back(
            {sites[i], 0.1 + 0.3 * static_cast<double>(i % 7)});
    return weighted;
}

TEST(CampaignEngine, MatchesSerialOnEveryRegisteredKernel)
{
    for (const auto &spec : apps::allKernels()) {
        SCOPED_TRACE(spec.fullName());
        analysis::KernelAnalysis ka(spec, apps::Scale::Small);

        Prng prng(2026);
        auto sites = ka.space().sampleSites(24, prng);
        auto weighted = weightSites(sites);

        auto serial_plain = faults::reference::runSiteList(ka.injector(), sites);
        auto serial_weighted =
            faults::reference::runWeightedSiteList(ka.injector(), weighted);

        for (const Shape &shape : kShapes) {
            SCOPED_TRACE("workers=" + std::to_string(shape.workers) +
                         " chunk=" + std::to_string(shape.chunk));
            faults::CampaignOptions options;
            options.workers = shape.workers;
            options.chunkSize = shape.chunk;
            faults::CampaignEngine engine(ka.injector(), options);

            expectSameResult(serial_plain, engine.run(sites));
            expectSameResult(serial_weighted,
                             engine.run(weighted));
        }
    }
}

TEST(CampaignEngine, EmptySiteList)
{
    const apps::KernelSpec *spec = apps::findKernel("PathFinder/K1");
    ASSERT_NE(spec, nullptr);
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);

    for (const Shape &shape : kShapes) {
        faults::CampaignOptions options;
        options.workers = shape.workers;
        options.chunkSize = shape.chunk;
        faults::CampaignEngine engine(ka.injector(), options);

        auto plain = engine.run(std::vector<faults::FaultSite>{});
        EXPECT_EQ(plain.runs, 0u);
        EXPECT_EQ(plain.dist.runs(), 0u);
        EXPECT_EQ(plain.dist.total(), 0.0);

        auto weighted =
            engine.run(std::vector<faults::WeightedSite>{});
        EXPECT_EQ(weighted.runs, 0u);
        EXPECT_EQ(weighted.dist.total(), 0.0);
        EXPECT_EQ(engine.runsPerformed(), 0u);
    }
}

TEST(CampaignEngine, SiteListSmallerThanWorkerCount)
{
    const apps::KernelSpec *spec = apps::findKernel("PathFinder/K1");
    ASSERT_NE(spec, nullptr);
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);

    Prng prng(7);
    auto sites = ka.space().sampleSites(3, prng);
    auto weighted = weightSites(sites);
    auto serial_plain = faults::reference::runSiteList(ka.injector(), sites);
    auto serial_weighted =
        faults::reference::runWeightedSiteList(ka.injector(), weighted);

    for (unsigned workers : {4u, 7u, 8u}) {
        faults::CampaignOptions options;
        options.workers = workers;
        options.chunkSize = 1;
        faults::CampaignEngine engine(ka.injector(), options);
        expectSameResult(serial_plain, engine.run(sites));
        expectSameResult(serial_weighted,
                         engine.run(weighted));
    }
}

TEST(CampaignEngine, RandomCampaignMatchesSerial)
{
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    ASSERT_NE(spec, nullptr);
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);

    Prng serial_prng(99);
    auto serial = faults::reference::runRandomCampaign(ka.injector(), ka.space(), 40,
                                            serial_prng);
    // The engine must consume the caller's PRNG exactly like the serial
    // driver, leaving the stream in the same position afterwards.
    std::uint64_t next_after_campaign = serial_prng();

    for (const Shape &shape : kShapes) {
        faults::CampaignOptions options;
        options.workers = shape.workers;
        options.chunkSize = shape.chunk;
        faults::CampaignEngine engine(ka.injector(), options);
        Prng parallel_prng(99);
        expectSameResult(serial, engine.run(
                                     ka.space(), 40, parallel_prng));
        EXPECT_EQ(next_after_campaign, parallel_prng());
    }
}

TEST(CampaignEngine, AnalyzerParallelPathsMatchSerial)
{
    const apps::KernelSpec *spec = apps::findKernel("MVT/K1");
    ASSERT_NE(spec, nullptr);
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);

    pruning::PruningConfig config;
    auto pruned = ka.prune(config);
    auto serial_estimate = ka.runPrunedCampaign(pruned);
    auto serial_baseline = ka.runBaseline(60, 123);

    faults::CampaignOptions options;
    options.workers = 4;
    options.chunkSize = 3;
    expectSameDist(serial_estimate,
                   ka.runPrunedCampaign(pruned, options));
    expectSameResult(serial_baseline, ka.runBaseline(60, 123, options));
}

} // namespace
} // namespace fsp
