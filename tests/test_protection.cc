/**
 * @file
 * Planner-to-executor suite for partial thread protection: a zero
 * budget buys nothing and leaves the baseline untouched, a full budget
 * suppresses every covered SDC, partial selections achieve the modeled
 * share of the reduction, the protected verification campaign stays
 * bit-identical across worker counts, and an aborted protect
 * verification resumes from its journal without re-injecting committed
 * sites.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>

#include "analysis/analyzer.hh"
#include "analysis/protection_planner.hh"
#include "apps/app.hh"
#include "faults/campaign_engine.hh"
#include "sim/protection.hh"

namespace fsp {
namespace {

/** A per-test journal path under gtest's temp dir, removed on setup. */
std::string
journalPath(const std::string &name)
{
    std::string path = testing::TempDir() + "fsp_" + name + ".fspj";
    std::remove(path.c_str());
    std::remove((path + ".protect").c_str());
    return path;
}

void
expectSameDist(const faults::OutcomeDist &a, const faults::OutcomeDist &b)
{
    EXPECT_EQ(a.runs(), b.runs());
    for (faults::Outcome o :
         {faults::Outcome::Masked, faults::Outcome::SDC,
          faults::Outcome::Other, faults::Outcome::Invalid}) {
        // Exact equality: protected campaigns fold in site order like
        // any other, so the weighted sums must match bit-for-bit.
        EXPECT_EQ(a.weightOf(o), b.weightOf(o))
            << "outcome " << faults::outcomeName(o);
    }
}

/**
 * GEMM at small scale is the planner's worst case and the ISSUE's
 * acceptance kernel: all 256 threads collapse into one homogeneous
 * group, so every fractional budget forces a partial (member-granular)
 * selection.
 */
class ProtectionPlannerTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
        ASSERT_NE(spec, nullptr);
        ka_.emplace(*spec, apps::Scale::Small);
        pruning::PruningConfig config;
        config.seed = 7;
        pruned_ = ka_->prune(config);
        ASSERT_FALSE(pruned_.sites.empty());
    }

    analysis::ProtectionOutcome
    runPlanner(double budget, const faults::CampaignOptions &options,
               sim::ProtectionScheme scheme =
                   sim::ProtectionScheme::DuplicateCompare)
    {
        analysis::ProtectionPlannerConfig config;
        config.budget = budget;
        config.scheme = scheme;
        analysis::ProtectionPlanner planner(*ka_, config);
        return planner.plan(pruned_, options);
    }

    std::optional<analysis::KernelAnalysis> ka_;
    pruning::PruningResult pruned_;
};

TEST_F(ProtectionPlannerTest, ZeroBudgetBuysNothingAndKeepsBaseline)
{
    auto outcome = runPlanner(0.0, {});
    EXPECT_EQ(outcome.plan, nullptr);
    EXPECT_TRUE(outcome.selected.empty());
    EXPECT_EQ(outcome.modeledCost, 0.0);
    EXPECT_EQ(outcome.modeledSdcCovered, 0.0);
    EXPECT_FALSE(outcome.verified);
    EXPECT_EQ(outcome.sdcBefore, outcome.sdcAfter);
    expectSameDist(outcome.before.dist, outcome.after.dist);

    // The baseline itself matches an ordinary pruned campaign: the
    // planner's keepSiteOutcomes bookkeeping is result-neutral.
    auto plain = ka_->runPrunedCampaignDetailed(pruned_, {});
    expectSameDist(plain.dist, outcome.before.dist);
}

TEST_F(ProtectionPlannerTest, FullBudgetSuppressesAllCoveredSdc)
{
    auto outcome = runPlanner(1.0, {});
    ASSERT_NE(outcome.plan, nullptr);
    ASSERT_FALSE(outcome.selected.empty());
    for (const analysis::SelectedGroup &group : outcome.selected) {
        EXPECT_EQ(group.threadCount, group.groupThreads)
            << "full budget must afford whole groups";
    }
    EXPECT_TRUE(outcome.verified);

    // The default single-bit model flips destination registers, which
    // duplicate-and-compare covers completely: every baseline SDC is
    // detected and suppressed, so the protected campaign's SDC weight
    // is exactly zero and each suppression counts as a detection.
    EXPECT_GT(outcome.sdcBefore, 0.0);
    EXPECT_EQ(outcome.after.dist.weightOf(faults::Outcome::SDC), 0.0);
    EXPECT_GT(outcome.after.injection.detectedFaults, 0u);
    EXPECT_GT(outcome.after.dist.weightOf(faults::Outcome::Masked),
              outcome.before.dist.weightOf(faults::Outcome::Masked));
}

TEST_F(ProtectionPlannerTest, PartialSelectionAchievesModeledShare)
{
    auto outcome = runPlanner(0.25, {});
    ASSERT_NE(outcome.plan, nullptr);
    ASSERT_EQ(outcome.selected.size(), 1u);
    const analysis::SelectedGroup &group = outcome.selected.front();
    EXPECT_EQ(group.groupThreads, 256u);
    EXPECT_EQ(group.threadCount, 64u); // 25% of one homogeneous group
    EXPECT_LT(group.threadCount, group.groupThreads);
    EXPECT_LE(outcome.modeledCost, outcome.budgetInstrs);
    EXPECT_EQ(outcome.plan->protectedThreadCount(), 64u);

    // Protected members must exclude the injected representatives:
    // those carry the unprotected share of the split weight.
    for (const pruning::ThreadGroup *g : pruned_.grouping.allGroups()) {
        EXPECT_FALSE(outcome.plan->protectsThread(g->representative));
        for (std::uint64_t rep : g->representatives)
            EXPECT_FALSE(outcome.plan->protectsThread(rep));
    }

    // Homogeneous members classify identically, so protecting k of m
    // members removes exactly k/m of the SDC weight (up to the split
    // weights' floating rescale).
    EXPECT_TRUE(outcome.verified);
    const double drop = outcome.sdcBefore - outcome.sdcAfter;
    EXPECT_GT(outcome.sdcAfter, 0.0);
    EXPECT_LT(outcome.sdcAfter, outcome.sdcBefore);
    EXPECT_NEAR(drop, 0.25 * outcome.sdcBefore, 1e-9);
}

TEST_F(ProtectionPlannerTest, RecomputeIsCheaperThanDuplicateCompare)
{
    auto dup = runPlanner(1.0, {});
    auto rec = runPlanner(1.0, {}, sim::ProtectionScheme::Recompute);
    ASSERT_NE(rec.plan, nullptr);
    EXPECT_EQ(rec.plan->scheme(), sim::ProtectionScheme::Recompute);

    // Recompute prices only the SDC-producing dynamic ranges, so the
    // same full-group coverage costs strictly less than doubling every
    // member instruction -- and still clears every covered SDC (the
    // default model corrupts destination registers inside the ranges).
    EXPECT_LT(rec.modeledCost, dup.modeledCost);
    EXPECT_TRUE(rec.verified);
    EXPECT_EQ(rec.after.dist.weightOf(faults::Outcome::SDC), 0.0);
}

TEST_F(ProtectionPlannerTest, ProtectedCampaignBitIdenticalAcrossWorkers)
{
    std::optional<analysis::ProtectionOutcome> reference;
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        faults::CampaignOptions options;
        options.workers = workers;
        options.chunkSize = 13;
        auto outcome = runPlanner(0.3, options);
        ASSERT_NE(outcome.plan, nullptr);
        EXPECT_TRUE(outcome.verified);
        if (!reference) {
            reference = std::move(outcome);
            continue;
        }
        expectSameDist(reference->before.dist, outcome.before.dist);
        expectSameDist(reference->after.dist, outcome.after.dist);
        EXPECT_EQ(reference->plan->identity(),
                  outcome.plan->identity());
    }
}

TEST_F(ProtectionPlannerTest, AbortedVerificationResumesFromJournal)
{
    // Reference: the same planner run without any journal.
    auto expected = runPlanner(0.25, {});
    ASSERT_TRUE(expected.verified);

    const std::string path = journalPath("protect_resume");
    faults::CampaignOptions options;
    options.workers = 3;
    options.chunkSize = 7;
    options.journalPath = path;
    options.journalKey = {"protect-suite", 7};
    options.resume = true;

    // Phase 1: the baseline campaign (pruned_.sites.size() sites)
    // completes and commits its journal; the verification campaign --
    // twice as large, every site of the one split group doubled --
    // crosses the abort threshold mid-run and dies like a SIGKILL
    // between chunk commits.
    const std::uint64_t baseline_sites = pruned_.sites.size();
    faults::CampaignOptions killed = options;
    killed.abortAfterSites = baseline_sites + baseline_sites / 2;
    EXPECT_THROW(runPlanner(0.25, killed), faults::CampaignAborted);

    // Phase 2: resume.  The baseline replays fully from its journal;
    // the verification replays its committed prefix from the .protect
    // journal and injects only the tail.  Both must reproduce the
    // journal-less reference bit-for-bit.
    auto resumed = runPlanner(0.25, options);
    EXPECT_TRUE(resumed.verified);
    expectSameDist(expected.before.dist, resumed.before.dist);
    expectSameDist(expected.after.dist, resumed.after.dist);
    EXPECT_EQ(expected.sdcAfter, resumed.sdcAfter);

    std::remove(path.c_str());
    std::remove((path + ".protect").c_str());
}

TEST(AnalysisConfig, ConstructorFixesEngineStrategy)
{
    const apps::KernelSpec *spec = apps::findKernel("PathFinder/K1");
    ASSERT_NE(spec, nullptr);

    // Construction-time config: engine knobs reach the injector.
    analysis::AnalysisConfig facade;
    facade.engine.checkpoints = false;
    facade.engine.slicing = false;
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small, facade);
    EXPECT_FALSE(ka.injector().checkpointsActive());
    EXPECT_FALSE(ka.injector().slicingActive());
}

} // namespace
} // namespace fsp
