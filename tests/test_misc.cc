/**
 * @file
 * Tests for the remaining support pieces: the CSV writer, program
 * validation/listing, the convergence-driven loop-budget procedure,
 * and multi-pilot thread grouping.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>

#include "analysis/breakdown.hh"
#include "analysis/convergence.hh"
#include "apps/app.hh"
#include "faults/fault_space.hh"
#include "pruning/grouping.hh"
#include "pruning/pipeline.hh"
#include "sim_test_util.hh"
#include "util/csv.hh"

namespace fsp {
namespace {

TEST(Csv, QuotesAndRendersRows)
{
    CsvWriter csv({"a", "b"});
    csv.addRow({"plain", "with,comma"});
    csv.addRow({"with\"quote", "with\nnewline"});
    std::string out = csv.str();
    EXPECT_NE(out.find("a,b\r\n"), std::string::npos);
    EXPECT_NE(out.find("plain,\"with,comma\"\r\n"), std::string::npos);
    EXPECT_NE(out.find("\"with\"\"quote\""), std::string::npos);
    EXPECT_EQ(csv.rowCount(), 2u);
}

TEST(Csv, WritesFile)
{
    std::string path = ::testing::TempDir() + "/fsp_csv_test.csv";
    CsvWriter csv({"x"});
    csv.addRow({"1"});
    ASSERT_TRUE(csv.writeFile(path));
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "x\r");
    std::remove(path.c_str());
}

TEST(Csv, RejectsInvalidPath)
{
    CsvWriter csv({"x"});
    EXPECT_FALSE(csv.writeFile("/nonexistent-dir-xyz/file.csv"));
}

TEST(Convergence, StabilisesOnLoopKernel)
{
    analysis::KernelAnalysis ka(*apps::findKernel("K-Means/K1"),
                                apps::Scale::Small);
    pruning::PruningConfig config;
    config.seed = 1;
    auto result =
        analysis::convergeLoopIterations(ka, config, 0.02, 2, 10);

    ASSERT_FALSE(result.history.empty());
    EXPECT_TRUE(result.converged);
    EXPECT_GE(result.chosenIterations, 2u);
    EXPECT_LE(result.chosenIterations, 10u);
    // History iterations are 1..chosen.
    EXPECT_EQ(result.history.size(), result.chosenIterations);
    for (std::size_t i = 0; i < result.history.size(); ++i)
        EXPECT_EQ(result.history[i].iterations, i + 1);
    // The last `window` deltas are all within tolerance.
    EXPECT_LE(result.history.back().delta, 0.02);
    EXPECT_GT(result.finalEstimate().runs(), 0u);
}

TEST(Convergence, LoopFreeKernelConvergesImmediately)
{
    analysis::KernelAnalysis ka(*apps::findKernel("NN/K1"),
                                apps::Scale::Small);
    pruning::PruningConfig config;
    config.seed = 1;
    auto result =
        analysis::convergeLoopIterations(ka, config, 0.01, 2, 8);
    // With no loops the estimate never moves: converges at step 3
    // (two consecutive zero-deltas after the first estimate).
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.chosenIterations, 3u);
    for (std::size_t i = 1; i < result.history.size(); ++i)
        EXPECT_EQ(result.history[i].delta, 0.0);
}

TEST(MultiPilot, GroupingSelectsDistinctRepresentatives)
{
    test::MiniKernel k(R"(
        cvt.u32.u16 $r2, %tid.x
        mov.u32 $r3, 0x00000001
        mov.u32 $r4, 0x00000002
        retp
    )",
                       8, 16);
    sim::Executor executor(k.program(), k.launchConfig());
    faults::FaultSpace space(executor, k.memory());

    Prng prng(3);
    auto pruning = pruning::pruneThreads(space, 16, prng, 4);
    ASSERT_EQ(pruning.ctaGroups.size(), 1u);
    ASSERT_EQ(pruning.ctaGroups[0].threadGroups.size(), 1u);
    const auto &tg = pruning.ctaGroups[0].threadGroups[0];
    ASSERT_EQ(tg.representatives.size(), 4u);
    std::set<std::uint64_t> distinct(tg.representatives.begin(),
                                     tg.representatives.end());
    EXPECT_EQ(distinct.size(), 4u);
    EXPECT_EQ(tg.representative, tg.representatives.front());
    EXPECT_EQ(pruning.representativeCount(), 4u);
}

TEST(MultiPilot, PipelineConservesWeightAcrossPilots)
{
    analysis::KernelAnalysis ka(*apps::findKernel("MVT/K1"),
                                apps::Scale::Small);
    pruning::PruningConfig config;
    config.seed = 5;
    config.thread.repsPerGroup = 3;
    auto pruned = ka.prune(config);

    EXPECT_EQ(pruned.plans.size(), 3u);
    // All pilots belong to the same group and are never folded.
    for (const auto &plan : pruned.plans)
        EXPECT_EQ(plan.groupId, pruned.plans.front().groupId);
    EXPECT_FALSE(pruned.instrStats.applicable);

    EXPECT_NEAR(pruned.totalRepresentedWeight() /
                    static_cast<double>(pruned.counts.exhaustive),
                1.0, 0.02);
}

TEST(MultiPilot, MorePilotsMeanMoreSites)
{
    analysis::KernelAnalysis ka(*apps::findKernel("GEMM/K1"),
                                apps::Scale::Small);
    pruning::PruningConfig one;
    one.seed = 5;
    pruning::PruningConfig two = one;
    two.thread.repsPerGroup = 2;
    auto p1 = ka.prune(one);
    auto p2 = ka.prune(two);
    EXPECT_GT(p2.sites.size(), p1.sites.size());
    EXPECT_NEAR(static_cast<double>(p2.sites.size()),
                2.0 * static_cast<double>(p1.sites.size()),
                0.2 * static_cast<double>(p2.sites.size()));
}

TEST(Breakdown, ClassifiesEveryDestOpcode)
{
    using sim::Opcode;
    // Every destination-writing opcode maps to a class without panic.
    for (unsigned i = 0; i < sim::kNumOpcodes; ++i) {
        auto op = static_cast<Opcode>(i);
        if (!sim::opcodeWritesDest(op))
            continue;
        std::string name = analysis::instrClassName(
            analysis::classifyOpcode(op));
        EXPECT_FALSE(name.empty()) << sim::opcodeName(op);
    }
    EXPECT_EQ(analysis::classifyOpcode(Opcode::Ld),
              analysis::InstrClass::Memory);
    EXPECT_EQ(analysis::classifyOpcode(Opcode::Mad),
              analysis::InstrClass::Arithmetic);
    EXPECT_EQ(analysis::classifyOpcode(Opcode::Setp),
              analysis::InstrClass::Compare);
    EXPECT_EQ(analysis::classifyOpcode(Opcode::Rsqrt),
              analysis::InstrClass::Special);
}

TEST(Breakdown, BucketsCoverRepresentativeSites)
{
    analysis::KernelAnalysis ka(*apps::findKernel("Gaussian/K1"),
                                apps::Scale::Small);
    auto breakdown = analysis::outcomeByInstrClass(ka, 40, 9);
    ASSERT_FALSE(breakdown.classes.empty());
    for (const auto &[cls, entry] : breakdown.classes) {
        EXPECT_GT(entry.bucketSites, 0u)
            << analysis::instrClassName(cls);
        EXPECT_GT(entry.dist.runs(), 0u);
        EXPECT_LE(entry.dist.runs(), 40u);
        // Fractions form a distribution.
        auto f = entry.dist.fractions();
        EXPECT_NEAR(f[0] + f[1] + f[2], 1.0, 1e-9);
    }
}

TEST(PruningConfig, CopySemantics)
{
    // The config is a plain aggregate of per-stage sub-structs; copies
    // must be deep and fully independent of their source.
    pruning::PruningConfig source;
    source.thread.repsPerGroup = 3;
    source.loop.iterations = 5;
    source.bit.samples = 9;

    pruning::PruningConfig copy(source);
    EXPECT_EQ(copy.loop.iterations, 5u);
    EXPECT_EQ(copy.bit.samples, 9u);
    copy.thread.repsPerGroup = 4;
    EXPECT_EQ(copy.thread.repsPerGroup, 4u);
    EXPECT_EQ(source.thread.repsPerGroup, 3u);

    pruning::PruningConfig assigned;
    assigned = source;
    assigned.loop.iterations = 1;
    EXPECT_EQ(assigned.loop.iterations, 1u);
    EXPECT_EQ(source.loop.iterations, 5u);
}

TEST(Program, ListingAndValidation)
{
    test::MiniKernel k("start: nop\nbra start\n");
    std::string listing = k.program().listing();
    EXPECT_NE(listing.find("start:"), std::string::npos);
    EXPECT_EQ(k.program().labels().at("start"), 0u);
    EXPECT_EQ(k.program().maxGpReg(), 0u);
    EXPECT_FALSE(k.program().usesBarriers());

    test::MiniKernel with_bar("bar.sync 2\nretp\n");
    EXPECT_TRUE(with_bar.program().usesBarriers());
    EXPECT_EQ(with_bar.program().barrierCount(), 3u);
}

} // namespace
} // namespace fsp
