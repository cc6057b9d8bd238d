/**
 * @file
 * Equivalence and behaviour tests for the resumable executor core and
 * checkpointed temporal replay.
 *
 * The contract mirrors the sliced engine's: checkpoints are a pure
 * optimisation.  For every registered kernel, classifying the same
 * site list with golden-run checkpoints used must produce outcome
 * distributions bit-identical to from-start execution -- serially and
 * through the parallel campaign engine at workers {2, 4, 8}, including
 * crash/hang sites and sites whose sliced attempt aborts on a hazard.
 * Additional tests pin the stepping engine (watermark-stepped CTAs
 * finish bit-identical to one-shot runs), CheckpointStore::find()
 * semantics, and the construction-time A/B switch at every layer.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/analyzer.hh"
#include "apps/app.hh"
#include "reference_campaign.hh"
#include "faults/checkpoint.hh"
#include "faults/fault_space.hh"
#include "faults/injector.hh"
#include "faults/campaign_engine.hh"
#include "ptx/assembler.hh"
#include "sim/executor.hh"
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

TEST(SteppingEngine, WatermarkSteppingMatchesOneShotRun)
{
    // Stepping a CTA to successive small watermarks and resuming must
    // retire it with memory and per-thread instruction counts
    // bit-identical to a one-shot run -- including kernels with
    // barriers, where a watermark can land mid barrier phase.
    for (const char *name : {"GEMM/K1", "HotSpot/K1", "PathFinder/K1"}) {
        SCOPED_TRACE(name);
        const apps::KernelSpec *spec = apps::findKernel(name);
        ASSERT_NE(spec, nullptr);
        apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
        sim::Executor executor(setup.program, setup.launch);

        sim::GlobalMemory oneshot = setup.memory;
        sim::TraceOptions opts;
        opts.perThreadProfiles = true;
        sim::RunResult full = executor.run(oneshot, &opts);
        ASSERT_EQ(full.status, sim::RunStatus::Completed);

        sim::GlobalMemory stepped = setup.memory;
        const std::uint64_t ctas = executor.config().grid.count();
        const std::uint64_t block = executor.config().block.count();
        for (std::uint64_t cta = 0; cta < ctas; ++cta) {
            sim::MachineState ms = executor.initialCtaState(cta);
            sim::CtaStepStatus status;
            do {
                status = executor.stepCta(ms, stepped,
                                          ms.executedDynInstrs + 64);
                ASSERT_TRUE(status == sim::CtaStepStatus::Watermark ||
                            status == sim::CtaStepStatus::Retired);
            } while (status != sim::CtaStepStatus::Retired);
            for (std::uint64_t t = 0; t < block; ++t) {
                EXPECT_EQ(ms.icnt(t),
                          full.trace.profiles[cta * block + t].iCnt)
                    << "cta " << cta << " thread " << t;
            }
        }
        EXPECT_EQ(stepped.snapshot(sim::GlobalMemory::kBaseAddr,
                                   stepped.allocatedBytes()),
                  oneshot.snapshot(sim::GlobalMemory::kBaseAddr,
                                   oneshot.allocatedBytes()));
    }
}

TEST(SteppingEngine, WatermarkStopsExactlyAtCount)
{
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    sim::Executor executor(setup.program, setup.launch);
    sim::GlobalMemory scratch = setup.memory;

    sim::MachineState ms = executor.initialCtaState(0);
    EXPECT_EQ(executor.stepCta(ms, scratch, 10),
              sim::CtaStepStatus::Watermark);
    EXPECT_EQ(ms.executedDynInstrs, 10u);

    // A watermark at or below the current count is an immediate stop.
    EXPECT_EQ(executor.stepCta(ms, scratch, 10),
              sim::CtaStepStatus::Watermark);
    EXPECT_EQ(ms.executedDynInstrs, 10u);

    // Resuming from a *copy* (serialization round-trip) retires the
    // CTA just the same.
    sim::MachineState copy = ms;
    EXPECT_EQ(executor.stepCta(copy, scratch, sim::kNoWatermark),
              sim::CtaStepStatus::Retired);
    EXPECT_GT(copy.executedDynInstrs, 10u);
}

TEST(CheckpointStore, FindReturnsLatestUsableCheckpoint)
{
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    Injector injector(setup.program, setup.launch, setup.memory,
                      setup.outputs);
    const CheckpointStore *store = injector.checkpointStore();
    ASSERT_NE(store, nullptr);
    ASSERT_FALSE(store->empty());
    EXPECT_EQ(store->ctaCount(), injector.executor().config().grid.count());
    EXPECT_GT(store->byteSize(), 0u);

    // GEMM has no barriers, so each thread runs its whole slice in one
    // scheduling pass: the first thread of a CTA has already finished
    // at every capture point and can never resume from one...
    const std::uint64_t first_icnt = injector.goldenICnt(0);
    EXPECT_EQ(store->find(0, 0, first_icnt - 1), nullptr);

    // ...while the last-scheduled thread trails every capture point.
    // A usable checkpoint never places the fault thread beyond the
    // fault's dynamic index, and later indices never map to earlier
    // capture points.
    const std::uint64_t lt =
        injector.executor().config().block.count() - 1;
    const std::uint64_t icnt = injector.goldenICnt(lt);
    std::uint64_t last = 0;
    bool found = false;
    for (std::uint64_t dyn = 0; dyn < icnt; dyn += 7) {
        const CtaCheckpoint *cp = store->find(0, lt, dyn);
        if (cp == nullptr)
            continue;
        found = true;
        EXPECT_LE(cp->state.icntOf(lt), dyn);
        EXPECT_GE(cp->ctaDynInstrs, last);
        last = cp->ctaDynInstrs;
    }
    EXPECT_TRUE(found);
    EXPECT_NE(store->find(0, lt, icnt - 1), nullptr);
}

/** A second injector for @p setup built with checkpoints off. */
std::unique_ptr<Injector>
fromStartInjector(const apps::KernelSetup &setup)
{
    return std::make_unique<Injector>(setup.program, setup.launch,
                                      setup.memory, setup.outputs,
                                      InjectorOptions{.checkpoints = false});
}

TEST(CheckpointEquivalence, EveryKernelSerialAndParallel)
{
    fsp::setVerboseLogging(false);
    std::uint64_t total_restores = 0;
    for (const apps::KernelSpec &spec : apps::allKernels()) {
        SCOPED_TRACE(spec.fullName());
        apps::KernelSetup setup = spec.setup(apps::Scale::Small, 42);
        sim::Executor executor(setup.program, setup.launch);
        FaultSpace space(executor, setup.memory);
        Prng prng(4321);
        auto sites = space.sampleSites(16, prng);

        Injector prototype(setup.program, setup.launch, setup.memory,
                           setup.outputs);

        // Serial: checkpointed replay vs from-start.
        auto replay = prototype.clone();
        auto scratch = fromStartInjector(setup);
        EXPECT_FALSE(scratch->checkpointsActive());
        CampaignResult replay_result = reference::runSiteList(*replay, sites);
        CampaignResult scratch_result = reference::runSiteList(*scratch, sites);
        expectSameDist(replay_result.dist, scratch_result.dist);
        EXPECT_EQ(replay_result.runs, scratch_result.runs);
        EXPECT_EQ(scratch_result.injection.checkpointRestores, 0u);
        EXPECT_EQ(scratch_result.injection.skippedDynInstrs, 0u);
        total_restores += replay_result.injection.checkpointRestores;

        // Parallel engine with checkpoints allowed vs the serial
        // from-start tally, at several worker counts.
        for (unsigned workers : {2u, 4u, 8u}) {
            SCOPED_TRACE(workers);
            CampaignOptions options;
            options.workers = workers;
            CampaignEngine engine(prototype, options);
            CampaignResult par = engine.run(sites);
            expectSameDist(par.dist, scratch_result.dist);
            EXPECT_EQ(par.runs, scratch_result.runs);
        }
    }
    // The suite must actually exercise replay somewhere, or the
    // equivalence above proves nothing.
    EXPECT_GT(total_restores, 0u);
}

TEST(CheckpointEquivalence, CrashAndHangSitesMatchFromStart)
{
    // Crash/hang runs abort mid-CTA; replayed runs must classify them
    // identically, and the dirty-range restore must still revert the
    // applied deltas before the next injection.
    fsp::setVerboseLogging(false);
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    sim::Executor executor(setup.program, setup.launch);
    FaultSpace space(executor, setup.memory);
    Prng prng(99);
    auto sites = space.sampleSites(48, prng);

    Injector prototype(setup.program, setup.launch, setup.memory,
                       setup.outputs);
    auto replay = prototype.clone();
    auto scratch = fromStartInjector(setup);

    bool saw_other = false;
    for (const auto &site : sites) {
        Outcome a = replay->inject(site);
        Outcome b = scratch->inject(site);
        ASSERT_EQ(a, b) << "thread " << site.thread << " dyn "
                        << site.dynIndex << " bit " << site.bit;
        saw_other = saw_other || a == Outcome::Other;
    }
    // The sample is large enough to include crash/hang outcomes; if
    // this ever fails, enlarge the sample rather than dropping it.
    EXPECT_TRUE(saw_other);
    EXPECT_GT(replay->stats().checkpointRestores, 0u);
    EXPECT_GT(replay->stats().skippedDynInstrs, 0u);
}

TEST(CheckpointEngine, GemmRestoresAndSkipsWork)
{
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    Injector injector(setup.program, setup.launch, setup.memory,
                      setup.outputs);
    ASSERT_TRUE(injector.checkpointsActive());
    EXPECT_NE(injector.checkpointDescription().find("checkpoints on"),
              std::string::npos);

    // A site late in the trace of the CTA's last-scheduled thread
    // resumes from a checkpoint and skips a non-trivial golden prefix
    // (the first-scheduled thread would find none -- see the
    // CheckpointStore test).
    const std::uint64_t t = injector.executor().config().block.count() - 1;
    const std::uint64_t late = injector.goldenICnt(t) - 20;
    Outcome with = injector.inject({t, late, 7});
    EXPECT_EQ(injector.stats().checkpointRestores, 1u);
    EXPECT_GT(injector.stats().skippedDynInstrs, 0u);

    auto from_start = fromStartInjector(setup);
    EXPECT_EQ(from_start->inject({t, late, 7}), with);
    EXPECT_EQ(from_start->stats().checkpointRestores, 0u);
}

TEST(CheckpointEngine, CloneSharesTheRecordedStore)
{
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    Injector prototype(setup.program, setup.launch, setup.memory,
                       setup.outputs);
    auto clone = prototype.clone();
    // Same immutable store, not a copy: recording happens once.
    EXPECT_EQ(clone->checkpointStore(), prototype.checkpointStore());

    // Building with checkpoints off records nothing at all.
    InjectorOptions off;
    off.checkpoints = false;
    Injector bare(setup.program, setup.launch, setup.memory,
                  setup.outputs, off);
    EXPECT_EQ(bare.checkpointStore(), nullptr);
    EXPECT_FALSE(bare.checkpointsActive());
    EXPECT_NE(bare.checkpointDescription().find("not recorded"),
              std::string::npos);
}

TEST(CheckpointEngine, ParallelSwitchForcesFromStartWorkers)
{
    fsp::setVerboseLogging(false);
    const apps::KernelSpec *spec = apps::findKernel("MVT/K1");
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    sim::Executor executor(setup.program, setup.launch);
    FaultSpace space(executor, setup.memory);
    Prng prng(5);
    auto sites = space.sampleSites(24, prng);

    Injector prototype(setup.program, setup.launch, setup.memory,
                       setup.outputs);

    CampaignOptions options;
    options.workers = 4;
    CampaignEngine with(prototype, options);
    ASSERT_TRUE(with.checkpointsActive());
    CampaignResult a = with.run(sites);
    EXPECT_GT(with.lastStats().injection.checkpointRestores, 0u);

    // A prototype built with checkpoints off gives from-start workers.
    CampaignEngine without(*fromStartInjector(setup), options);
    EXPECT_FALSE(without.checkpointsActive());
    CampaignResult b = without.run(sites);
    EXPECT_EQ(without.lastStats().injection.checkpointRestores, 0u);
    EXPECT_EQ(without.lastStats().injection.skippedDynInstrs, 0u);

    expectSameDist(a.dist, b.dist);
}

/**
 * Two CTAs, one thread each; CTA c computes &out[c] and stores c + 5.
 * Flipping bit 2 of thread 1's address register (dyn index 3) redirects
 * its store into CTA 0's footprint, so the sliced attempt aborts on the
 * store hazard and the injector replays on the full grid -- both legs
 * resuming from checkpoints (recorded at every instruction here, the
 * CTAs being far below the default capture interval).
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

TEST(CheckpointEngine, InSliceStoreHazardComposesWithCheckpoints)
{
    HazardKernel k;
    InjectorOptions options;
    options.checkpointing.minInterval = 1; // capture despite 7-instr CTAs
    Injector injector(k.program, k.launch, k.memory, k.outputs, options);
    ASSERT_TRUE(injector.slicingPlan().independent());
    ASSERT_TRUE(injector.checkpointsActive());

    // A clean sliced run resumes from a checkpoint (value-register
    // fault, SDC within CTA 1's own footprint).
    ASSERT_EQ(injector.inject({1, 4, 0}), Outcome::SDC);
    EXPECT_EQ(injector.stats().slicedRuns, 1u);
    EXPECT_EQ(injector.stats().hazardFallbacks, 0u);
    EXPECT_EQ(injector.stats().checkpointRestores, 1u);

    // The address-register fault redirects CTA 1's store into out[0],
    // a byte only CTA 0 (which ran earlier) writes: the checkpointed
    // sliced run classifies it in-slice, keeping CTA 1's value there,
    // with one restore and no full-grid replay.
    ASSERT_EQ(injector.inject({1, 3, 2}), Outcome::SDC);
    EXPECT_EQ(injector.stats().hazardFallbacks, 0u);
    EXPECT_EQ(injector.stats().fullGridRuns, 0u);
    EXPECT_EQ(injector.stats().slicedRuns, 2u);
    EXPECT_EQ(injector.stats().checkpointRestores, 2u);

    // From-start execution agrees on both sites.
    Injector from_start(k.program, k.launch, k.memory, k.outputs,
                        InjectorOptions{.checkpoints = false});
    EXPECT_EQ(from_start.inject({1, 4, 0}), Outcome::SDC);
    EXPECT_EQ(from_start.inject({1, 3, 2}), Outcome::SDC);
    EXPECT_EQ(from_start.stats().checkpointRestores, 0u);
}

TEST(CheckpointEngine, TinyKernelBelowIntervalRecordsNothing)
{
    HazardKernel k;
    Injector injector(k.program, k.launch, k.memory, k.outputs);
    const CheckpointStore *store = injector.checkpointStore();
    ASSERT_NE(store, nullptr);
    // 7 instructions per CTA never reach the default 256-instruction
    // capture interval: the store is recorded but empty, and the
    // engine quietly executes from start.
    EXPECT_TRUE(store->empty());
    EXPECT_FALSE(injector.checkpointsActive());
    EXPECT_NE(injector.checkpointDescription().find("below capture"),
              std::string::npos);
    EXPECT_EQ(injector.inject({1, 4, 0}), Outcome::SDC);
    EXPECT_EQ(injector.stats().checkpointRestores, 0u);
}

TEST(CheckpointAnalysis, FacadeSwitchMatchesPrunedCampaigns)
{
    const apps::KernelSpec *spec = apps::findKernel("PathFinder/K1");
    analysis::KernelAnalysis on(*spec, apps::Scale::Small);
    analysis::AnalysisConfig no_checkpoints;
    no_checkpoints.engine.checkpoints = false;
    analysis::KernelAnalysis off(*spec, apps::Scale::Small,
                                 no_checkpoints);
    EXPECT_FALSE(off.checkpointsActive());
    EXPECT_TRUE(on.checkpointsActive());

    pruning::PruningConfig config;
    auto a = on.prune(config);
    auto da = on.runPrunedCampaign(a);
    auto b = off.prune(config);
    auto db = off.runPrunedCampaign(b);

    expectSameDist(da, db);
    // Campaigns run on engine workers (clones), so the restore
    // counters live in the engine's campaign stats, not the facade
    // injector's.
    EXPECT_GT(on.campaignEngine().lastStats()
                  .injection.checkpointRestores,
              0u);
    EXPECT_EQ(off.campaignEngine().lastStats()
                  .injection.checkpointRestores,
              0u);
}

} // namespace
} // namespace fsp
