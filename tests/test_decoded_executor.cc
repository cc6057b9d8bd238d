/**
 * @file
 * Golden-trace differential suite for the pre-decoded dispatch engine.
 *
 * The decoded engine (ExecEngine::Decoded) is the fast path every
 * campaign runs on; the reference engine (ExecEngine::Reference) is
 * the original per-step instruction walk kept as the oracle.  Their
 * contract is bit-identical observable behaviour: for every registered
 * kernel, fault-free runs must produce identical statuses, dynamic
 * instruction counts, per-thread profiles, full dynamic traces, CTA
 * footprints and final memory images -- and injection runs must agree
 * on the fault's application and on every corrupted output byte, also
 * when a sliced run's faulty accesses reach other CTAs' bytes and go
 * through the hazard resolver.
 */

#include <gtest/gtest.h>

#include <vector>

#include "apps/app.hh"
#include "faults/fault_model.hh"
#include "faults/fault_space.hh"
#include "faults/slicing.hh"
#include "sim/executor.hh"
#include "sim/section.hh"
#include "util/logging.hh"
#include "util/prng.hh"

namespace fsp {
namespace {

using sim::ExecEngine;
using sim::Executor;
using sim::GlobalMemory;
using sim::RunResult;
using sim::TraceOptions;

/** Full allocated image of a memory arena. */
std::vector<std::uint8_t>
imageOf(const GlobalMemory &mem)
{
    return mem.snapshot(GlobalMemory::kBaseAddr, mem.allocatedBytes());
}

/** Assert two runs are observationally identical, field by field. */
void
expectSameRun(const RunResult &dec, const RunResult &ref)
{
    EXPECT_EQ(dec.status, ref.status);
    EXPECT_EQ(dec.totalDynInstrs, ref.totalDynInstrs);
    EXPECT_EQ(dec.executedCtas, ref.executedCtas);
    EXPECT_EQ(dec.diagnostic, ref.diagnostic);

    ASSERT_EQ(dec.trace.profiles.size(), ref.trace.profiles.size());
    for (std::size_t t = 0; t < ref.trace.profiles.size(); ++t) {
        EXPECT_EQ(dec.trace.profiles[t].iCnt, ref.trace.profiles[t].iCnt)
            << "thread " << t;
        EXPECT_EQ(dec.trace.profiles[t].faultBits,
                  ref.trace.profiles[t].faultBits)
            << "thread " << t;
    }

    ASSERT_EQ(dec.trace.dynTraces.size(), ref.trace.dynTraces.size());
    for (const auto &[tid, ref_trace] : ref.trace.dynTraces) {
        auto it = dec.trace.dynTraces.find(tid);
        ASSERT_NE(it, dec.trace.dynTraces.end()) << "thread " << tid;
        const auto &dec_trace = it->second;
        ASSERT_EQ(dec_trace.size(), ref_trace.size()) << "thread " << tid;
        for (std::size_t i = 0; i < ref_trace.size(); ++i) {
            EXPECT_EQ(dec_trace[i].staticIndex, ref_trace[i].staticIndex)
                << "thread " << tid << " step " << i;
            EXPECT_EQ(dec_trace[i].destBits, ref_trace[i].destBits)
                << "thread " << tid << " step " << i;
        }
    }

    ASSERT_EQ(dec.trace.ctaFootprints.size(),
              ref.trace.ctaFootprints.size());
    for (std::size_t c = 0; c < ref.trace.ctaFootprints.size(); ++c) {
        EXPECT_EQ(dec.trace.ctaFootprints[c].reads,
                  ref.trace.ctaFootprints[c].reads)
            << "CTA " << c;
        EXPECT_EQ(dec.trace.ctaFootprints[c].writes,
                  ref.trace.ctaFootprints[c].writes)
            << "CTA " << c;
    }
}

/**
 * Every registered kernel, fault-free: both engines with full tracing
 * (profiles, footprints, and dynamic traces of the first, a middle and
 * the last thread) must match record for record, and the final global
 * memory images must be byte-identical.
 */
TEST(DecodedExecutor, GoldenTraceEveryKernel)
{
    fsp::setVerboseLogging(false);
    for (const apps::KernelSpec &spec : apps::allKernels()) {
        SCOPED_TRACE(spec.fullName());
        apps::KernelSetup setup = spec.setup(apps::Scale::Small, 42);

        const std::uint64_t threads =
            setup.launch.grid.count() * setup.launch.block.count();
        TraceOptions opts;
        opts.perThreadProfiles = true;
        opts.ctaFootprints = true;
        opts.traceThreads = {0, threads / 2, threads - 1};

        Executor decoded(setup.program, setup.launch,
                         ExecEngine::Decoded);
        Executor reference(setup.program, setup.launch,
                           ExecEngine::Reference);

        GlobalMemory dec_mem = setup.memory;
        GlobalMemory ref_mem = setup.memory;
        RunResult dec = decoded.run(dec_mem, &opts);
        RunResult ref = reference.run(ref_mem, &opts);

        expectSameRun(dec, ref);
        EXPECT_EQ(imageOf(dec_mem), imageOf(ref_mem));
    }
}

/**
 * Every registered kernel, under injection: a uniform sample of fault
 * sites run through both engines must agree on the terminal status,
 * on whether/where the fault applied, on the instruction count, and on
 * every byte of the (possibly corrupted) final memory image.
 */
TEST(DecodedExecutor, FaultInjectionParityEveryKernel)
{
    fsp::setVerboseLogging(false);
    for (const apps::KernelSpec &spec : apps::allKernels()) {
        SCOPED_TRACE(spec.fullName());
        apps::KernelSetup setup = spec.setup(apps::Scale::Small, 42);

        Executor decoded(setup.program, setup.launch,
                         ExecEngine::Decoded);
        Executor reference(setup.program, setup.launch,
                           ExecEngine::Reference);

        faults::FaultSpace space(decoded, setup.memory);
        Prng prng(99);
        auto sites = space.sampleSites(12, prng);

        for (const faults::FaultSite &site : sites) {
            SCOPED_TRACE("thread " + std::to_string(site.thread) +
                         " dyn " + std::to_string(site.dynIndex) +
                         " bit " + std::to_string(site.bit));
            sim::FaultPlan dec_plan = site.toPlan();
            sim::FaultPlan ref_plan = site.toPlan();

            GlobalMemory dec_mem = setup.memory;
            GlobalMemory ref_mem = setup.memory;
            RunResult dec = decoded.run(dec_mem, nullptr, &dec_plan);
            RunResult ref = reference.run(ref_mem, nullptr, &ref_plan);

            EXPECT_EQ(dec.status, ref.status);
            EXPECT_EQ(dec.totalDynInstrs, ref.totalDynInstrs);
            EXPECT_EQ(dec.diagnostic, ref.diagnostic);
            EXPECT_EQ(dec_plan.applied, ref_plan.applied);
            EXPECT_EQ(dec_plan.appliedStatic, ref_plan.appliedStatic);
            EXPECT_EQ(imageOf(dec_mem), imageOf(ref_mem));
        }
    }
}

/**
 * Sliced hazard parity: single-CTA sliced injection runs whose faults
 * load or store other CTAs' bytes (corrupted addresses, and global
 * byte flips) go through one HazardResolver per engine.  Both engines
 * must agree on the status, the fault's application, every byte of
 * the run's image, whether cross-CTA loads were served and which
 * later CTAs the run's stores reach.
 */
TEST(DecodedExecutor, SlicedHazardParity)
{
    fsp::setVerboseLogging(false);
    std::uint64_t hazard_runs = 0;
    for (const char *name :
         {"GEMM/K1", "SYRK/K1", "K-Means/K2", "Gaussian/K2", "2DCONV/K1"}) {
        SCOPED_TRACE(name);
        const apps::KernelSpec *spec = apps::findKernel(name);
        ASSERT_NE(spec, nullptr);
        apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);

        Executor decoded(setup.program, setup.launch,
                         ExecEngine::Decoded);
        Executor reference(setup.program, setup.launch,
                           ExecEngine::Reference);

        TraceOptions opts;
        opts.ctaFootprints = true;
        opts.perThreadProfiles = true;
        GlobalMemory golden_mem = setup.memory;
        RunResult golden = decoded.run(golden_mem, &opts);
        const faults::SlicingPlan plan = faults::SlicingPlan::analyze(
            std::move(golden.trace.ctaFootprints), golden_mem);
        ASSERT_TRUE(plan.independent()) << plan.reason();

        std::vector<std::uint64_t> golden_icnt;
        for (const auto &profile : golden.trace.profiles)
            golden_icnt.push_back(profile.iCnt);
        faults::ModelContext model_ctx;
        model_ctx.threads = golden_icnt.size();
        model_ctx.blockThreads = setup.launch.block.count();
        model_ctx.globalBase = GlobalMemory::kBaseAddr;
        model_ctx.globalBytes = setup.memory.allocatedBytes();
        model_ctx.goldenICnt = &golden_icnt;
        std::string error;
        const auto gmem_flip = faults::parseFaultModel("gmem-flip", &error);
        ASSERT_NE(gmem_flip, nullptr) << error;

        faults::FaultSpace space(decoded, setup.memory);
        Prng prng(31);
        auto sites = space.sampleSites(96, prng);
        for (std::size_t i = 0; i < sites.size(); ++i) {
            const faults::FaultSite &site = sites[i];
            SCOPED_TRACE("thread " + std::to_string(site.thread) +
                         " dyn " + std::to_string(site.dynIndex) +
                         " bit " + std::to_string(site.bit));
            const std::uint64_t cta =
                site.thread / setup.launch.block.count();
            sim::FaultPlan dec_plan =
                i % 2 ? gmem_flip->plan(site, model_ctx) : site.toPlan();
            sim::FaultPlan ref_plan = dec_plan;

            GlobalMemory dec_mem = setup.memory;
            GlobalMemory ref_mem = setup.memory;
            faults::HazardResolver dec_res(plan, setup.memory, {cta});
            faults::HazardResolver ref_res(plan, setup.memory, {cta});
            RunResult dec =
                decoded.run(dec_mem, nullptr, &dec_plan, &dec_res.slice());
            RunResult ref = reference.run(ref_mem, nullptr, &ref_plan,
                                          &ref_res.slice());

            EXPECT_EQ(dec.status, ref.status);
            EXPECT_EQ(dec.totalDynInstrs, ref.totalDynInstrs);
            EXPECT_EQ(dec.diagnostic, ref.diagnostic);
            EXPECT_EQ(dec_plan.applied, ref_plan.applied);
            EXPECT_EQ(dec_plan.appliedStatic, ref_plan.appliedStatic);
            EXPECT_EQ(imageOf(dec_mem), imageOf(ref_mem));
            EXPECT_EQ(dec_res.servedLoads(), ref_res.servedLoads());
            EXPECT_EQ(dec_res.laterReaders(), ref_res.laterReaders());
            EXPECT_EQ(dec_res.runBytes(dec_mem.dirtyIntervals()),
                      ref_res.runBytes(ref_mem.dirtyIntervals()));
            if (dec_res.servedLoads() || !dec_res.laterReaders().empty())
                ++hazard_runs;
        }
    }
    // The sample must actually reach other CTAs' bytes, or this test
    // proves nothing about the resolver path.
    EXPECT_GT(hazard_runs, 0u);
}

/**
 * recordValues parity: the guard-outcome flags and post-writeback
 * destination values that feed trace-section hashing (sim/section.hh)
 * must agree record for record between the engines, and the resulting
 * section hashes -- the section cache's entire notion of identity --
 * must be bit-identical.
 */
TEST(DecodedExecutor, RecordValuesParityEveryKernel)
{
    fsp::setVerboseLogging(false);
    for (const apps::KernelSpec &spec : apps::allKernels()) {
        SCOPED_TRACE(spec.fullName());
        apps::KernelSetup setup = spec.setup(apps::Scale::Small, 42);

        const std::uint64_t threads =
            setup.launch.grid.count() * setup.launch.block.count();
        TraceOptions opts;
        opts.recordValues = true;
        opts.traceThreads = {0, threads / 2, threads - 1};

        Executor decoded(setup.program, setup.launch,
                         ExecEngine::Decoded);
        Executor reference(setup.program, setup.launch,
                           ExecEngine::Reference);
        GlobalMemory dec_mem = setup.memory;
        GlobalMemory ref_mem = setup.memory;
        RunResult dec = decoded.run(dec_mem, &opts);
        RunResult ref = reference.run(ref_mem, &opts);

        ASSERT_EQ(dec.trace.dynTraces.size(), ref.trace.dynTraces.size());
        for (const auto &[tid, ref_trace] : ref.trace.dynTraces) {
            SCOPED_TRACE(tid);
            auto it = dec.trace.dynTraces.find(tid);
            ASSERT_NE(it, dec.trace.dynTraces.end());
            const auto &dec_trace = it->second;
            ASSERT_EQ(dec_trace.size(), ref_trace.size());
            for (std::size_t i = 0; i < ref_trace.size(); ++i) {
                SCOPED_TRACE(i);
                EXPECT_EQ(dec_trace[i], ref_trace[i]);
            }

            sim::SectionedTrace dec_sections = sim::splitTrace(
                setup.program.instructions(), dec_trace);
            sim::SectionedTrace ref_sections = sim::splitTrace(
                setup.program.instructions(), ref_trace);
            ASSERT_EQ(dec_sections.sections.size(),
                      ref_sections.sections.size());
            for (std::size_t s = 0; s < ref_sections.sections.size();
                 ++s) {
                EXPECT_EQ(dec_sections.sections[s].contentHash,
                          ref_sections.sections[s].contentHash);
                EXPECT_EQ(dec_sections.sections[s].prefixStateHash,
                          ref_sections.sections[s].prefixStateHash);
                EXPECT_EQ(dec_sections.sections[s].tailContentHash,
                          ref_sections.sections[s].tailContentHash);
            }
        }
    }
}

/**
 * stepCta parity: advancing one CTA to an instruction watermark must
 * leave both engines in bit-identical machine state (registers, CCs,
 * pcs, instruction counts, fault-bit tallies, shared memory), and a
 * snapshot captured at the watermark must survive a capture/restore
 * roundtrip and resume to the same terminal state on either engine.
 */
TEST(DecodedExecutor, StepWatermarkAndSnapshotParity)
{
    fsp::setVerboseLogging(false);
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    ASSERT_NE(spec, nullptr);
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);

    Executor decoded(setup.program, setup.launch, ExecEngine::Decoded);
    Executor reference(setup.program, setup.launch,
                       ExecEngine::Reference);

    GlobalMemory dec_mem = setup.memory;
    GlobalMemory ref_mem = setup.memory;
    sim::MachineState dec_state = decoded.initialCtaState(0);
    sim::MachineState ref_state = reference.initialCtaState(0);

    auto dec_status = decoded.stepCta(dec_state, dec_mem, 500);
    auto ref_status = reference.stepCta(ref_state, ref_mem, 500);
    ASSERT_EQ(dec_status, sim::CtaStepStatus::Watermark);
    ASSERT_EQ(ref_status, sim::CtaStepStatus::Watermark);

    ASSERT_EQ(dec_state.numThreads(), ref_state.numThreads());
    EXPECT_EQ(dec_state.executedDynInstrs, ref_state.executedDynInstrs);
    for (std::uint32_t t = 0; t < ref_state.numThreads(); ++t) {
        SCOPED_TRACE(t);
        EXPECT_EQ(dec_state.pc(t), ref_state.pc(t));
        EXPECT_EQ(dec_state.icnt(t), ref_state.icnt(t));
        EXPECT_EQ(dec_state.faultBits(t), ref_state.faultBits(t));
        for (std::uint32_t r = 0; r < ref_state.numRegs(); ++r)
            EXPECT_EQ(dec_state.regs(t)[r], ref_state.regs(t)[r]);
        for (std::uint32_t p = 0; p < sim::kNumPredRegs; ++p)
            EXPECT_EQ(dec_state.ccs(t)[p], ref_state.ccs(t)[p]);
    }

    // Snapshot roundtrip: capture at the watermark, restore, and
    // confirm the restored copy resumes to the same end state as the
    // original on both engines.
    sim::StateSnapshot snap;
    snap.capture(dec_state);
    sim::MachineState restored;
    snap.restoreInto(restored);

    GlobalMemory resumed_mem = dec_mem;
    auto end_direct = decoded.stepCta(dec_state, dec_mem);
    auto end_resumed = decoded.stepCta(restored, resumed_mem);
    EXPECT_EQ(end_direct, sim::CtaStepStatus::Retired);
    EXPECT_EQ(end_resumed, sim::CtaStepStatus::Retired);
    EXPECT_EQ(dec_state.executedDynInstrs, restored.executedDynInstrs);
    EXPECT_EQ(imageOf(dec_mem), imageOf(resumed_mem));

    GlobalMemory ref_end_mem = ref_mem;
    auto ref_end = reference.stepCta(ref_state, ref_end_mem);
    EXPECT_EQ(ref_end, sim::CtaStepStatus::Retired);
    EXPECT_EQ(ref_state.executedDynInstrs, dec_state.executedDynInstrs);
    EXPECT_EQ(imageOf(ref_end_mem), imageOf(dec_mem));
}

} // namespace
} // namespace fsp
