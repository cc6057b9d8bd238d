/**
 * @file
 * Fault-model strategy suite.  Three guarantees, per built-in model:
 *
 *  1. spec parsing and identity: every built-in parses from its spec
 *     string, renders a canonical identity, and hashes distinctly;
 *  2. campaign equivalence: for every registered kernel the engine
 *     produces bit-identical profiles (outcome weights AND the anatomy
 *     aggregate) at workers {1,2,4,8}, with slicing and checkpointed
 *     replay toggled on and off;
 *  3. durable sessions: a journaled campaign under a non-default model
 *     survives a mid-campaign kill and resumes bit-identically, and a
 *     resume under a *different* model is rejected with a clear
 *     JournalError naming the model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "apps/app.hh"
#include "faults/campaign_engine.hh"
#include "faults/campaign_journal.hh"
#include "faults/fault_model.hh"

namespace fsp {
namespace {

std::shared_ptr<const faults::FaultModel>
makeModel(const std::string &spec)
{
    std::string error;
    std::unique_ptr<faults::FaultModel> model =
        faults::parseFaultModel(spec, &error);
    EXPECT_NE(model, nullptr) << spec << ": " << error;
    return std::shared_ptr<const faults::FaultModel>(std::move(model));
}

void
expectSameDist(const faults::OutcomeDist &a, const faults::OutcomeDist &b)
{
    EXPECT_EQ(a.runs(), b.runs());
    for (faults::Outcome o :
         {faults::Outcome::Masked, faults::Outcome::SDC,
          faults::Outcome::Other, faults::Outcome::Invalid}) {
        // Exact equality: the engine folds serially in site order, so
        // the weighted doubles must match bit-for-bit.
        EXPECT_EQ(a.weightOf(o), b.weightOf(o))
            << "outcome " << faults::outcomeName(o);
    }
}

void
expectSameAnatomy(const faults::SdcAnatomyProfile &a,
                  const faults::SdcAnatomyProfile &b)
{
    EXPECT_EQ(a.sdcRuns(), b.sdcRuns());
    for (std::size_t p = 0; p < faults::kNumSdcPatterns; ++p) {
        auto pattern = static_cast<faults::SdcPattern>(p);
        EXPECT_EQ(a.patternRuns(pattern), b.patternRuns(pattern))
            << faults::sdcPatternName(pattern);
        EXPECT_EQ(a.patternWeight(pattern), b.patternWeight(pattern))
            << faults::sdcPatternName(pattern);
    }
    EXPECT_EQ(a.magnitude(), b.magnitude());
    ASSERT_EQ(a.byStatic().size(), b.byStatic().size());
    auto ia = a.byStatic().begin();
    auto ib = b.byStatic().begin();
    for (; ia != a.byStatic().end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first);
        EXPECT_EQ(ia->second.runs, ib->second.runs);
        EXPECT_EQ(ia->second.masked, ib->second.masked);
        EXPECT_EQ(ia->second.sdc, ib->second.sdc);
        EXPECT_EQ(ia->second.other, ib->second.other);
    }
}

void
expectSameResult(const faults::CampaignResult &a,
                 const faults::CampaignResult &b)
{
    EXPECT_EQ(a.runs, b.runs);
    expectSameDist(a.dist, b.dist);
    expectSameAnatomy(a.anatomy, b.anatomy);
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

TEST(FaultModelSpec, EveryBuiltinParsesToItsOwnIdentity)
{
    std::set<std::string> identities;
    std::set<std::uint64_t> hashes;
    for (const std::string &name : faults::builtinFaultModels()) {
        auto model = makeModel(name);
        ASSERT_NE(model, nullptr);
        EXPECT_EQ(model->kind(), name);
        EXPECT_FALSE(faults::faultModelDescription(name).empty()) << name;
        EXPECT_TRUE(identities.insert(model->identity()).second)
            << "duplicate identity " << model->identity();
        EXPECT_TRUE(hashes.insert(model->identityHash()).second)
            << "identity hash collision on " << name;
        // clone() preserves identity (and therefore the journal hash).
        EXPECT_EQ(model->clone()->identity(), model->identity());
    }
    // Parameters are part of the identity.
    EXPECT_NE(makeModel("multi-bit:width=2")->identity(),
              makeModel("multi-bit:width=3")->identity());
    // ... and canonicalized: the default width spells out explicitly.
    EXPECT_EQ(makeModel("multi-bit")->identity(),
              makeModel("multi-bit:width=2")->identity());
}

TEST(FaultModelSpec, BadSpecsAreRejectedWithDiagnostics)
{
    std::string error;
    EXPECT_EQ(faults::parseFaultModel("no-such-model", &error), nullptr);
    EXPECT_NE(error.find("no-such-model"), std::string::npos) << error;
    EXPECT_EQ(faults::parseFaultModel("multi-bit:bogus=1", &error),
              nullptr);
    EXPECT_NE(error.find("bogus"), std::string::npos) << error;
    EXPECT_EQ(faults::parseFaultModel("multi-bit:width=0", &error),
              nullptr);
    EXPECT_EQ(faults::parseFaultModel("multi-bit:width=nope", &error),
              nullptr);
    EXPECT_EQ(faults::parseFaultModel("", &error), nullptr);
}

TEST(FaultModelSpec, PlansAreDeterministicInSiteAndSeed)
{
    const apps::KernelSpec *spec = apps::findKernel("PathFinder/K1");
    ASSERT_NE(spec, nullptr);
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);
    faults::ModelContext ctx;
    ctx.threads = 16;
    ctx.blockThreads = 8;
    ctx.globalBase = 0x1000;
    ctx.globalBytes = 4096;
    ctx.sharedBytes = 256;
    ctx.seed = 7;
    std::vector<std::uint64_t> icnt(16, 100);
    ctx.goldenICnt = &icnt;

    faults::FaultSite site{3, 41, 5};
    for (const std::string &name : faults::builtinFaultModels()) {
        auto model = makeModel(name);
        if (!model->validate(site, ctx, nullptr))
            continue;
        auto a = model->plan(site, ctx);
        auto b = model->plan(site, ctx);
        EXPECT_EQ(a.kind, b.kind) << name;
        EXPECT_EQ(a.mask, b.mask) << name;
        EXPECT_EQ(a.addr, b.addr) << name;
        EXPECT_EQ(a.period, b.period) << name;
    }

    // Memory models draw their address from the campaign seed: a
    // different seed must be able to pick a different byte.
    auto gmem = makeModel("gmem-flip");
    auto plan7 = gmem->plan(site, ctx);
    faults::ModelContext other = ctx;
    bool moved = false;
    for (std::uint64_t seed = 8; seed < 24 && !moved; ++seed) {
        other.seed = seed;
        moved = gmem->plan(site, other).addr != plan7.addr;
    }
    EXPECT_TRUE(moved) << "gmem-flip address ignores the campaign seed";
}

TEST(FaultModelSpec, ValidationRejectsOutOfRangeSites)
{
    faults::ModelContext ctx;
    ctx.threads = 4;
    ctx.blockThreads = 4;
    ctx.globalBytes = 64;
    std::vector<std::uint64_t> icnt = {10, 10, 10, 10};
    ctx.goldenICnt = &icnt;

    auto model = makeModel("single-bit");
    std::string why;
    EXPECT_FALSE(model->validate({9, 0, 0}, ctx, &why));
    EXPECT_FALSE(why.empty());
    EXPECT_FALSE(model->validate({0, 10, 0}, ctx, &why));
    EXPECT_TRUE(model->validate({0, 9, 0}, ctx, nullptr));

    // Shared-memory faults need a kernel that has shared memory.
    auto smem = makeModel("smem-flip");
    ctx.sharedBytes = 0;
    EXPECT_FALSE(smem->validate({0, 1, 0}, ctx, &why));
    EXPECT_NE(why.find("shared"), std::string::npos) << why;
    ctx.sharedBytes = 128;
    EXPECT_TRUE(smem->validate({0, 1, 0}, ctx, nullptr));
}

/**
 * The heart of the suite: per model, per registered kernel, the engine
 * profile is bit-identical at every worker count and with the sliced /
 * checkpointed fast paths toggled either way.
 */
TEST(FaultModelEquivalence, BitIdenticalAcrossWorkersSlicingCheckpoints)
{
    struct Config
    {
        unsigned workers;
        bool slicing;
        bool checkpoints;
    };
    const Config kConfigs[] = {
        {2, true, true},  {4, true, true},  {8, true, true},
        {2, false, true}, {2, true, false}, {1, false, false},
    };

    for (const auto &spec : apps::allKernels()) {
        SCOPED_TRACE(spec.fullName());
        analysis::KernelAnalysis ka(spec, apps::Scale::Small);
        Prng prng(2026);
        auto weighted = weightSites(ka.space().sampleSites(8, prng));

        // Engines inherit their prototype's strategy: one prototype per
        // (slicing, checkpoints) pair of kConfigs.
        const apps::KernelSetup &setup = ka.setup();
        std::map<std::pair<bool, bool>, faults::Injector> prototypes;
        for (const Config &config : kConfigs) {
            prototypes.try_emplace(
                std::make_pair(config.slicing, config.checkpoints),
                setup.program, setup.launch, setup.memory, setup.outputs,
                faults::InjectorOptions{.slicing = config.slicing,
                                        .checkpoints = config.checkpoints});
        }

        for (const std::string &name : faults::builtinFaultModels()) {
            SCOPED_TRACE("model=" + name);
            auto model = makeModel(name);

            faults::CampaignOptions reference_options;
            reference_options.workers = 1;
            reference_options.chunkSize = 3;
            reference_options.faultModel = model;
            reference_options.journalKey.seed = 2026;
            faults::CampaignEngine reference(ka.injector(),
                                             reference_options);
            auto expected = reference.run(weighted);

            for (const Config &config : kConfigs) {
                SCOPED_TRACE("workers=" +
                             std::to_string(config.workers) +
                             " slicing=" + std::to_string(config.slicing) +
                             " ckpt=" + std::to_string(config.checkpoints));
                faults::CampaignOptions options = reference_options;
                options.workers = config.workers;
                faults::CampaignEngine engine(
                    prototypes.at({config.slicing, config.checkpoints}),
                    options);
                expectSameResult(expected, engine.run(weighted));
            }
        }
    }
}

/** Kill/resume durability under a non-default model (acceptance bar). */
TEST(FaultModelJournal, NonDefaultModelResumesBitIdentically)
{
    const apps::KernelSpec *spec = apps::findKernel("PathFinder/K1");
    ASSERT_NE(spec, nullptr);
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);
    Prng prng(2026);
    auto weighted = weightSites(ka.space().sampleSites(60, prng));

    for (const std::string &name :
         {std::string("intermittent-stuck:period=prng"),
          std::string("gmem-flip"), std::string("pred-flip")}) {
        SCOPED_TRACE(name);
        auto model = makeModel(name);
        std::string path = testing::TempDir() + "fsp_model_resume.fspj";
        std::remove(path.c_str());

        faults::CampaignOptions base;
        base.workers = 4;
        base.chunkSize = 5;
        base.faultModel = model;
        base.journalPath = path;
        base.journalKey = {"model-journal-suite", 2026};

        faults::CampaignEngine reference(ka.injector(), {});
        // The uninterrupted profile, same model, no journal.
        faults::CampaignOptions plain;
        plain.workers = 4;
        plain.chunkSize = 5;
        plain.faultModel = model;
        plain.journalKey.seed = base.journalKey.seed;
        faults::CampaignEngine uninterrupted(ka.injector(), plain);
        auto expected = uninterrupted.run(weighted);

        faults::CampaignOptions killed = base;
        killed.abortAfterSites = 18;
        faults::CampaignEngine first(ka.injector(), killed);
        EXPECT_THROW(first.run(weighted), faults::CampaignAborted);

        faults::CampaignOptions resumed = base;
        resumed.resume = true;
        faults::CampaignEngine second(ka.injector(), resumed);
        expectSameResult(expected, second.run(weighted));
        EXPECT_GE(second.lastStats().replayedSites,
                  killed.abortAfterSites);
        std::remove(path.c_str());
    }
}

TEST(FaultModelJournal, ResumeUnderDifferentModelRejected)
{
    const apps::KernelSpec *spec = apps::findKernel("PathFinder/K1");
    ASSERT_NE(spec, nullptr);
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);
    Prng prng(2026);
    auto weighted = weightSites(ka.space().sampleSites(30, prng));

    std::string path = testing::TempDir() + "fsp_model_mismatch.fspj";
    std::remove(path.c_str());

    faults::CampaignOptions options;
    options.workers = 2;
    options.chunkSize = 5;
    options.faultModel = makeModel("multi-bit:width=3");
    options.journalPath = path;
    options.journalKey = {"mismatch-suite", 2026};
    faults::CampaignEngine first(ka.injector(), options);
    first.run(weighted);

    // Same campaign identity, different model: refused with a message
    // that names the fault model (not a generic stale-header error).
    faults::CampaignOptions resumed = options;
    resumed.resume = true;
    resumed.faultModel = nullptr; // back to the default single-bit
    faults::CampaignEngine second(ka.injector(), resumed);
    try {
        second.run(weighted);
        FAIL() << "model mismatch accepted";
    } catch (const faults::JournalError &error) {
        EXPECT_NE(std::string(error.what()).find("fault model"),
                  std::string::npos)
            << error.what();
    }

    // The recorded model still resumes cleanly.
    resumed.faultModel = options.faultModel;
    faults::CampaignEngine third(ka.injector(), resumed);
    auto result = third.run(weighted);
    EXPECT_EQ(result.runs, weighted.size());
    EXPECT_EQ(third.lastStats().injectedSites, 0u);
    std::remove(path.c_str());
}

/** The facade route: a model set on ka.injector() steers the cached
 *  engine, also when it changes after the engine was built. */
TEST(FaultModelFacade, AnalyzerForwardsModelToEngines)
{
    const apps::KernelSpec *spec = apps::findKernel("PathFinder/K1");
    ASSERT_NE(spec, nullptr);
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);
    EXPECT_EQ(ka.faultModel().kind(), "single-bit");

    auto first = makeModel("multi-bit:width=3");
    ka.injector().setFaultModel(first, 2026);
    EXPECT_EQ(ka.faultModel().identity(), first->identity());

    // Engine workers clone the facade injector, so campaigns run under
    // the facade's model even without CampaignOptions::faultModel.
    faults::CampaignEngine *engine = &ka.campaignEngine({});
    EXPECT_EQ(engine->faultModel().identity(), first->identity());
    EXPECT_EQ(engine->faultModelSeed(), 2026u);

    // A model or seed set after the engine was built rebuilds it.
    auto second = makeModel("multi-bit:width=2");
    ka.injector().setFaultModel(second, 2026);
    engine = &ka.campaignEngine({});
    EXPECT_EQ(engine->faultModel().identity(), second->identity());

    ka.injector().setFaultModel(second, 7);
    engine = &ka.campaignEngine({});
    EXPECT_EQ(engine->faultModelSeed(), 7u);

    // The rebuilt engine classifies as one built afresh from the
    // facade injector.
    Prng prng(2026);
    auto weighted = weightSites(ka.space().sampleSites(8, prng));
    faults::CampaignEngine fresh(ka.injector(), {});
    expectSameResult(fresh.run(weighted), engine->run(weighted));
}

} // namespace
} // namespace fsp
