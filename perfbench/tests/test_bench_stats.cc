/**
 * @file
 * Tests of the benchmark's own arithmetic: percentiles with their
 * sample count, ratios with their base, the hazard-site split of the
 * traced run's observer, and the unattributed wall time.
 */

#include <gtest/gtest.h>

#include "bench_stats.hh"
#include "site_timer.hh"

namespace fsp::perfbench {
namespace {

using faults::CampaignObserver;

TEST(Percentile, NearestRankCarriesSampleCount)
{
    std::vector<double> samples;
    for (int i = 100; i >= 1; --i)
        samples.push_back(i);
    Percentile p50 = percentile(samples, 0.50);
    EXPECT_EQ(p50.value, 50.0);
    EXPECT_EQ(p50.samples, 100u);
    EXPECT_EQ(percentile(samples, 0.99).value, 99.0);
    EXPECT_EQ(percentile(samples, 1.0).value, 100.0);
    EXPECT_EQ(percentile(samples, 0.0).value, 1.0);
    // 10 samples: p99 has rank ceil(9.9) = 10, the maximum.
    std::vector<double> ten = {5, 1, 4, 2, 3, 10, 9, 8, 7, 6};
    EXPECT_EQ(percentile(ten, 0.99).value, 10.0);
    EXPECT_EQ(percentile(ten, 0.5).value, 5.0);
    EXPECT_EQ(percentile(ten, 0.5).samples, 10u);
}

TEST(Percentile, EmptySetIsZeroWithZeroSamples)
{
    Percentile p = percentile({}, 0.99);
    EXPECT_EQ(p.value, 0.0);
    EXPECT_EQ(p.samples, 0u);
}

TEST(Ratio, KeepsItsBase)
{
    Ratio hazard = ratio(114, 1174 + 114);
    EXPECT_DOUBLE_EQ(hazard.value, 114.0 / 1288.0);
    EXPECT_EQ(hazard.base, 1288.0);
    Ratio none = ratio(0, 0);
    EXPECT_EQ(none.value, 0.0);
    EXPECT_EQ(none.base, 0.0);
}

TEST(Unattributed, IsWallMinusEveryTimedCall)
{
    std::map<std::string, double> layers = {{"apps.setup", 0.25},
                                            {"faults.campaign", 1.5},
                                            {"pruning.prune", 0.2}};
    EXPECT_NEAR(unattributedSeconds(2.0, layers), 0.05, 1e-12);
    EXPECT_DOUBLE_EQ(unattributedSeconds(1.0, {}), 1.0);
}

TEST(SiteTimer, SplitsSitesThatFollowAHazardOnTheSameWorker)
{
    SiteTimer timer;
    timer.onCampaignBegin({"test", 5, 2, false});
    faults::FaultSite site{};
    auto classified = [&](double seconds, unsigned worker) {
        timer.onSiteClassified(
            {&site, faults::Outcome::Masked, seconds, worker});
    };
    classified(0.001, 0);
    timer.onSliceHazard({3, 1}); // worker 1's next site is a fallback
    classified(0.002, 0);        // worker 0: not a hazard site
    classified(0.004, 1);        // worker 1: the fallback
    classified(0.003, 1);        // flag cleared after one site
    timer.onSliceHazard({0, 0});
    classified(0.005, 0);

    std::vector<double> all = timer.siteSeconds();
    EXPECT_EQ(all.size(), 5u);
    std::vector<double> hazard = timer.hazardSiteSeconds();
    ASSERT_EQ(hazard.size(), 2u);
    EXPECT_EQ(percentile(hazard, 1.0).value, 0.005);
    EXPECT_EQ(percentile(hazard, 0.5).value, 0.004);
}

TEST(SiteTimer, CountsJournalCommitsAndBytes)
{
    SiteTimer timer;
    timer.onJournalCommit({10, 400, false});
    timer.onJournalCommit({0, 64, true});
    EXPECT_EQ(timer.journalCommits(), 2u);
    EXPECT_EQ(timer.journalBytes(), 464u);
}

TEST(SiteTimer, HazardFlagDoesNotLeakIntoTheNextCampaign)
{
    SiteTimer timer;
    timer.onCampaignBegin({"a", 1, 1, false});
    timer.onSliceHazard({0, 0});
    timer.onCampaignBegin({"b", 1, 1, false});
    faults::FaultSite site{};
    timer.onSiteClassified({&site, faults::Outcome::SDC, 0.001, 0});
    EXPECT_TRUE(timer.hazardSiteSeconds().empty());
}

} // namespace
} // namespace fsp::perfbench
