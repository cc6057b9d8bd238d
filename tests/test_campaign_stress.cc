/**
 * @file
 * Seeded stress and property tests for the thread pool and the
 * parallel campaign engine: chunk coverage and reuse of the pool,
 * exception propagation, identical distributions for identical seeds
 * across repeats and worker counts, and run-count bookkeeping
 * (per-worker totals summing to the campaign total).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "analysis/analyzer.hh"
#include "apps/app.hh"
#include "reference_campaign.hh"
#include "faults/campaign_engine.hh"
#include "faults/fault_model.hh"
#include "util/thread_pool.hh"

namespace fsp {
namespace {

TEST(ThreadPool, EveryChunkRunsExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.workerCount(), 4u);

    for (std::size_t chunks : {0u, 1u, 3u, 4u, 17u, 100u}) {
        std::vector<std::atomic<int>> hits(chunks);
        pool.parallelFor(chunks, [&](std::size_t chunk, unsigned worker) {
            EXPECT_LT(worker, pool.workerCount());
            hits[chunk].fetch_add(1);
        });
        for (std::size_t i = 0; i < chunks; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "chunk " << i;
    }
}

TEST(ThreadPool, ReusableAcrossManyJobs)
{
    ThreadPool pool(3);
    std::atomic<std::uint64_t> sum{0};
    for (int job = 0; job < 50; ++job) {
        pool.parallelFor(7, [&](std::size_t chunk, unsigned) {
            sum.fetch_add(chunk + 1);
        });
    }
    // 50 jobs x (1+2+...+7).
    EXPECT_EQ(sum.load(), 50u * 28u);
}

TEST(ThreadPool, PropagatesBodyException)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(5,
                                  [&](std::size_t chunk, unsigned) {
                                      if (chunk == 3)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);

    // The pool survives a throwing job and keeps working.
    std::atomic<int> ran{0};
    pool.parallelFor(4, [&](std::size_t, unsigned) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPool, SingleWorkerIsSequential)
{
    ThreadPool pool(1);
    std::vector<std::size_t> order;
    pool.parallelFor(6, [&](std::size_t chunk, unsigned worker) {
        EXPECT_EQ(worker, 0u);
        order.push_back(chunk);
    });
    std::vector<std::size_t> expected(6);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
}

/** Exact equality of two outcome tallies. */
void
expectSameDist(const faults::OutcomeDist &a, const faults::OutcomeDist &b)
{
    EXPECT_EQ(a.runs(), b.runs());
    for (faults::Outcome o :
         {faults::Outcome::Masked, faults::Outcome::SDC,
          faults::Outcome::Other}) {
        EXPECT_EQ(a.weightOf(o), b.weightOf(o))
            << "outcome " << faults::outcomeName(o);
    }
}

TEST(CampaignStress, SameSeedSameDistributionAcrossRunsAndWorkers)
{
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    ASSERT_NE(spec, nullptr);
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);
    const std::size_t runs = 120;
    const std::uint64_t seed = 4242;

    Prng serial_prng(seed);
    auto reference = faults::reference::runRandomCampaign(ka.injector(), ka.space(),
                                               runs, serial_prng);
    EXPECT_EQ(reference.runs, runs);

    for (unsigned workers : {1u, 3u, 5u, 8u}) {
        faults::CampaignOptions options;
        options.workers = workers;
        options.chunkSize = 7;
        faults::CampaignEngine engine(ka.injector(), options);

        for (int repeat = 0; repeat < 2; ++repeat) {
            Prng prng(seed);
            auto result =
                engine.run(ka.space(), runs, prng);
            EXPECT_EQ(result.runs, runs);
            expectSameDist(reference.dist, result.dist);

            // Per-worker bookkeeping: the workers' shares add up to
            // the campaign size, and the engine's injector totals
            // account for every run it ever performed.
            const auto &stats = engine.lastStats();
            ASSERT_EQ(stats.perWorkerRuns.size(), workers);
            std::uint64_t share_sum =
                std::accumulate(stats.perWorkerRuns.begin(),
                                stats.perWorkerRuns.end(),
                                std::uint64_t{0});
            EXPECT_EQ(share_sum, result.runs);
            EXPECT_EQ(engine.runsPerformed(),
                      runs * static_cast<std::uint64_t>(repeat + 1));
        }
    }
}

TEST(CampaignStress, WeightedPropertyOverRandomLists)
{
    const apps::KernelSpec *spec = apps::findKernel("PathFinder/K1");
    ASSERT_NE(spec, nullptr);
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);

    // Each trial runs under a different fault model, so the weighted
    // serial==parallel property is stressed across the strategy
    // matrix, not just the default single-bit flip.
    const std::vector<std::string> model_matrix = {
        "single-bit", "multi-bit:width=3", "pred-flip", "gmem-flip"};

    Prng meta(1337);
    for (int trial = 0; trial < 4; ++trial) {
        std::string error;
        auto model = faults::parseFaultModel(
            model_matrix[trial % model_matrix.size()], &error);
        ASSERT_NE(model, nullptr) << error;
        ka.injector().setFaultModel(std::move(model), 2026);

        // A fresh random weighted list per trial: random length, sites
        // drawn from the space, weights spread over orders of
        // magnitude to stress the double accumulation.
        std::size_t n = 5 + static_cast<std::size_t>(meta.below(40));
        Prng site_prng = meta.fork("sites-" + std::to_string(trial));
        auto sites = ka.space().sampleSites(n, site_prng);
        std::vector<faults::WeightedSite> weighted;
        weighted.reserve(n);
        for (const auto &site : sites)
            weighted.push_back({site, meta.uniform(0.01, 1000.0)});

        auto serial = faults::reference::runWeightedSiteList(ka.injector(), weighted);

        for (unsigned workers : {2u, 7u}) {
            faults::CampaignOptions options;
            options.workers = workers;
            options.chunkSize = 1 + trial; // varies 1..4
            faults::CampaignEngine engine(ka.injector(), options);
            auto parallel = engine.run(weighted);
            EXPECT_EQ(serial.runs, parallel.runs);
            expectSameDist(serial.dist, parallel.dist);
        }
    }
}

TEST(CampaignStress, ChunkFoldProgressCoversAllSites)
{
    const apps::KernelSpec *spec = apps::findKernel("PathFinder/K1");
    ASSERT_NE(spec, nullptr);
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);

    Prng prng(5);
    auto sites = ka.space().sampleSites(23, prng);

    // Fold-point events fire under the engine's progress lock: done
    // counts must be monotonic and bounded by the total.
    struct ProgressObserver final : faults::CampaignObserver
    {
        std::uint64_t lastDone = 0;
        std::uint64_t expectedTotal = 0;
        void
        onChunkFolded(const ChunkFolded &event) override
        {
            EXPECT_GT(event.sitesDone, lastDone);
            EXPECT_LE(event.sitesDone, event.sitesTotal);
            EXPECT_EQ(event.sitesTotal, expectedTotal);
            lastDone = event.sitesDone;
        }
    } progress;
    progress.expectedTotal = sites.size();

    faults::CampaignOptions options;
    options.workers = 3;
    options.chunkSize = 5;
    options.observer = &progress;
    faults::CampaignEngine engine(ka.injector(), options);
    auto result = engine.run(sites);
    EXPECT_EQ(result.runs, sites.size());
    EXPECT_EQ(progress.lastDone, sites.size());
}

} // namespace
} // namespace fsp
