/**
 * @file
 * Robustness properties across the whole stack: every kernel completes
 * its golden run for multiple input seeds, campaigns are bitwise
 * deterministic per seed, paper-scale geometry executes end to end,
 * and the injector classifies arbitrary in-space fault sites without
 * ever failing.
 */

#include <gtest/gtest.h>

#include "analysis/analyzer.hh"
#include "apps/app.hh"
#include "faults/fault_model.hh"
#include "sim/executor.hh"

namespace fsp {
namespace {

class SeedSweep
    : public ::testing::TestWithParam<std::tuple<std::string,
                                                 std::uint64_t>>
{
};

TEST_P(SeedSweep, GoldenRunCompletesForEverySeed)
{
    auto [name, seed] = GetParam();
    const apps::KernelSpec *spec = apps::findKernel(name);
    ASSERT_NE(spec, nullptr);
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, seed);
    sim::Executor executor(setup.program, setup.launch);
    auto result = executor.run(setup.memory);
    EXPECT_EQ(result.status, sim::RunStatus::Completed)
        << name << " seed " << seed << ": " << result.diagnostic;
    // Outputs must be fully inside allocated memory.
    for (const auto &region : setup.outputs) {
        auto bytes = setup.memory.snapshot(region.addr, region.bytes);
        EXPECT_EQ(bytes.size(), region.bytes);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsThreeSeeds, SeedSweep,
    ::testing::Combine(::testing::ValuesIn([] {
                           std::vector<std::string> names;
                           for (const auto &spec : apps::allKernels())
                               names.push_back(spec.fullName());
                           return names;
                       }()),
                       ::testing::Values(1u, 7u, 20260704u)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param) + "_s" +
                           std::to_string(std::get<1>(info.param));
        for (char &c : name) {
            if (c == '/' || c == '-')
                c = '_';
        }
        return name;
    });

TEST(Robustness, CampaignsAreDeterministicPerSeed)
{
    const apps::KernelSpec *spec = apps::findKernel("Gaussian/K1");
    analysis::KernelAnalysis ka1(*spec, apps::Scale::Small);
    analysis::KernelAnalysis ka2(*spec, apps::Scale::Small);

    auto b1 = ka1.runBaseline(300, 55);
    auto b2 = ka2.runBaseline(300, 55);
    EXPECT_EQ(b1.dist.fractions(), b2.dist.fractions());

    pruning::PruningConfig config;
    config.seed = 5;
    auto e1 = ka1.runPrunedCampaign(ka1.prune(config));
    auto e2 = ka2.runPrunedCampaign(ka2.prune(config));
    EXPECT_EQ(e1.fractions(), e2.fractions());
    EXPECT_EQ(e1.runs(), e2.runs());

    // A different seed draws different sites.
    auto b3 = ka1.runBaseline(300, 56);
    EXPECT_NE(b1.dist.fractions(), b3.dist.fractions());
}

TEST(Robustness, PaperScaleKernelsExecuteEndToEnd)
{
    // Profiling-grade check on the largest geometries (one golden run
    // each; GEMM's is ~17M dynamic instructions).
    for (const char *name : {"GEMM/K1", "HotSpot/K1", "NN/K1"}) {
        const apps::KernelSpec *spec = apps::findKernel(name);
        apps::KernelSetup setup = spec->setup(apps::Scale::Paper, 42);
        sim::Executor executor(setup.program, setup.launch);
        auto result = executor.run(setup.memory);
        EXPECT_EQ(result.status, sim::RunStatus::Completed) << name;
        EXPECT_GT(result.totalDynInstrs,
                  setup.launch.threadCount()) // every thread ran
            << name;
    }
}

TEST(Robustness, InjectorHandlesArbitraryInSpaceSites)
{
    const apps::KernelSpec *spec = apps::findKernel("PathFinder/K1");
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);

    Prng prng(2026);
    auto sites = ka.space().sampleSites(150, prng);
    std::uint64_t tally = 0;
    for (const auto &site : sites) {
        faults::Outcome outcome = ka.injector().inject(site);
        // Classification is total: one of the three classes, always.
        EXPECT_TRUE(outcome == faults::Outcome::Masked ||
                    outcome == faults::Outcome::SDC ||
                    outcome == faults::Outcome::Other);
        tally++;
    }
    EXPECT_EQ(tally, sites.size());
    EXPECT_EQ(ka.injector().runsPerformed(), sites.size());
}

/**
 * The injector robustness properties hold for every strategy in a
 * small model matrix, not just the default single-bit flip:
 * classification over arbitrary in-space sites is total (the four
 * outcome classes, never a crash) and bitwise repeatable.
 */
class ModelMatrix : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ModelMatrix, InjectorClassifiesArbitrarySitesUnderModel)
{
    const apps::KernelSpec *spec = apps::findKernel("PathFinder/K1");
    ASSERT_NE(spec, nullptr);
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);

    std::string error;
    auto model = faults::parseFaultModel(GetParam(), &error);
    ASSERT_NE(model, nullptr) << error;
    const std::string identity = model->identity();
    ka.injector().setFaultModel(std::move(model), 77);
    EXPECT_EQ(ka.faultModel().identity(), identity);

    Prng prng(2026);
    auto sites = ka.space().sampleSites(40, prng);
    std::vector<faults::Outcome> outcomes;
    for (const auto &site : sites) {
        faults::Outcome outcome = ka.injector().inject(site);
        // Some models reject sites the default accepts (e.g. shared
        // memory flips on a kernel without shared state), so Invalid
        // is a legal member of the total classification here.
        EXPECT_TRUE(outcome == faults::Outcome::Masked ||
                    outcome == faults::Outcome::SDC ||
                    outcome == faults::Outcome::Other ||
                    outcome == faults::Outcome::Invalid)
            << GetParam();
        outcomes.push_back(outcome);
    }

    // Re-injecting the same sites classifies identically.
    for (std::size_t i = 0; i < sites.size(); i += 7)
        EXPECT_EQ(ka.injector().inject(sites[i]), outcomes[i]) << i;
}

INSTANTIATE_TEST_SUITE_P(
    SmallModelMatrix, ModelMatrix,
    ::testing::Values("single-bit", "multi-bit:width=3", "scattered-bits",
                      "pred-flip", "intermittent-stuck:period=8",
                      "gmem-flip"),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == ':' || c == '=' || c == '-')
                c = '_';
        }
        return name;
    });

TEST(Robustness, InjectionDoesNotContaminateGoldenState)
{
    // After any number of injections, a fresh fault-free comparison
    // must still classify as masked (the pristine image is restored).
    const apps::KernelSpec *spec = apps::findKernel("LUD/K45");
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);

    Prng prng(9);
    auto sites = ka.space().sampleSites(30, prng);
    for (const auto &site : sites)
        ka.injector().inject(site);

    // A site in a dead position: flipping the highest bit of the very
    // last dynamic write of thread 0 after its value was consumed is
    // not guaranteed dead, so instead re-inject a known site twice and
    // demand identical classification.
    auto first = ka.injector().inject(sites[0]);
    auto second = ka.injector().inject(sites[0]);
    EXPECT_EQ(first, second);
}

} // namespace
} // namespace fsp
