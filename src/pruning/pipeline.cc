/**
 * @file
 * Progressive pruning pipeline implementation.
 */

#include "pruning/pipeline.hh"

#include "faults/slicing.hh"
#include "util/logging.hh"

namespace fsp::pruning {

std::vector<ThreadPlan>
buildThreadPlans(const sim::Executor &executor,
                 const sim::GlobalMemory &image,
                 const ThreadwisePruning &grouping,
                 const faults::SlicingPlan *slicing,
                 std::uint64_t *profiledCtas)
{
    sim::TraceOptions opts;
    std::vector<const ThreadGroup *> groups = grouping.allGroups();
    for (const ThreadGroup *group : groups)
        for (std::uint64_t rep : group->representatives)
            opts.traceThreads.insert(rep);

    // Under CTA independence a fault-free run of just the CTAs holding
    // the traced representatives produces bit-identical traces; skip
    // the rest of the grid.  No hazard sets are needed: without a
    // fault, accesses follow the golden footprints by definition.
    sim::CtaSlice slice;
    const sim::CtaSlice *slice_ptr = nullptr;
    if (slicing && slicing->independent()) {
        const std::uint64_t block_threads =
            executor.config().block.count();
        std::vector<std::uint64_t> ctas;
        ctas.reserve(opts.traceThreads.size());
        for (std::uint64_t rep : opts.traceThreads)
            ctas.push_back(rep / block_threads);
        slice.range = sim::CtaRange::of(std::move(ctas));
        slice_ptr = &slice;
    }

    sim::GlobalMemory scratch = image;
    sim::RunResult result =
        executor.run(scratch, &opts, nullptr, slice_ptr);
    if (profiledCtas)
        *profiledCtas = result.executedCtas;
    if (result.status != sim::RunStatus::Completed)
        fatal("traced profiling run failed: ", result.diagnostic);

    std::vector<ThreadPlan> plans;
    plans.reserve(groups.size());
    std::uint32_t group_id = 0;
    for (const ThreadGroup *group : groups) {
        // The group's fault bits are split evenly across its pilots:
        // each pilot plan carries weight such that the sum over pilots
        // of (weight * pilot bits) equals the group's total bits.
        const auto &reps = group->representatives;
        for (std::uint64_t rep : reps) {
            ThreadPlan plan;
            plan.thread = rep;
            plan.groupId = group_id;
            plan.trace = std::move(result.trace.dynTraces.at(rep));
            std::uint64_t rep_bits = 0;
            for (const auto &record : plan.trace)
                rep_bits += record.destBits;
            plan.baseWeight =
                rep_bits > 0
                    ? static_cast<double>(group->groupFaultBits) /
                          (static_cast<double>(reps.size()) *
                           static_cast<double>(rep_bits))
                    : 0.0;
            plan.weight.assign(plan.trace.size(), plan.baseWeight);
            plans.push_back(std::move(plan));
        }
        group_id++;
    }
    return plans;
}

namespace {

/**
 * Per-stage instrumentation: wall-time and surviving-site gauges,
 * registered idempotently so pipeline, observers and tools share one
 * registry without duplicating families.  All members stay invalid
 * when no registry is attached, and ScopedPhaseTimer / the setters
 * are null-safe, so the unobserved pipeline pays nothing.
 */
struct StageMetrics
{
    explicit StageMetrics(metrics::Registry *registry)
        : registry_(registry)
    {
        if (!registry_)
            return;
        static const char *const kStages[5] = {
            "thread", "profiling", "instruction", "loop", "bit"};
        for (std::size_t s = 0; s < 5; ++s) {
            seconds[s] = registry_->gauge(
                "fsp_pruning_stage_seconds",
                "cumulative wall time per pruning stage",
                std::string("stage=\"") + kStages[s] + "\"");
        }
        static const char *const kCounts[5] = {
            "exhaustive", "thread", "instruction", "loop", "bit"};
        for (std::size_t s = 0; s < 5; ++s) {
            sites[s] = registry_->gauge(
                "fsp_pruning_stage_sites",
                "fault sites surviving each pruning stage",
                std::string("stage=\"") + kCounts[s] + "\"");
        }
    }

    metrics::ScopedPhaseTimer
    timeStage(std::size_t stage) const
    {
        return metrics::ScopedPhaseTimer(registry_, seconds[stage]);
    }

    void
    setSites(std::size_t stage, std::uint64_t count) const
    {
        if (registry_)
            registry_->set(sites[stage], static_cast<double>(count));
    }

    metrics::Registry *registry_;
    metrics::GaugeId seconds[5];
    metrics::GaugeId sites[5];
};

} // namespace

PruningResult
prunePipeline(const sim::Executor &executor, const sim::GlobalMemory &image,
              const faults::FaultSpace &space, const PruningConfig &config,
              const faults::SlicingPlan *slicing,
              metrics::Registry *metrics)
{
    Prng prng(config.seed);
    StageMetrics stage_metrics(metrics);

    PruningResult result;
    result.counts.exhaustive = space.totalSites();
    stage_metrics.setSites(0, result.counts.exhaustive);

    // Stage 1: thread-wise pruning.
    Prng grouping_prng = prng.fork("grouping");
    {
        auto timer = stage_metrics.timeStage(0);
        result.grouping =
            pruneThreads(space, executor.config().block.count(),
                         grouping_prng, config.thread.repsPerGroup);
    }
    result.slicedProfiling = slicing && slicing->independent();
    {
        auto timer = stage_metrics.timeStage(1);
        result.plans = buildThreadPlans(executor, image, result.grouping,
                                        slicing, &result.profiledCtas);
    }
    result.counts.afterThread = 0;
    for (const auto &plan : result.plans)
        result.counts.afterThread += plan.liveSites();
    stage_metrics.setSites(1, result.counts.afterThread);

    // Stage 2: instruction-wise pruning.
    if (config.instruction.enabled) {
        auto timer = stage_metrics.timeStage(2);
        result.instrStats = applyInstructionPruning(result.plans);
    }
    std::uint64_t live = 0;
    for (const auto &plan : result.plans)
        live += plan.liveSites();
    result.counts.afterInstruction = live;
    stage_metrics.setSites(2, live);

    // Stage 3: loop-wise pruning.  Each plan forks its sampling PRNG
    // from its own thread id.
    if (config.loop.iterations > 0) {
        auto timer = stage_metrics.timeStage(3);
        Prng loop_prng = prng.fork("loops");
        for (ThreadPlan &plan : result.plans) {
            Prng thread_prng =
                loop_prng.fork("thread-" + std::to_string(plan.thread));
            LoopPruningStats stats =
                applyLoopPruning(plan, executor.program(),
                                 config.loop.iterations, thread_prng);
            result.loopStats.loopsSampled += stats.loopsSampled;
            result.loopStats.iterationsTotal += stats.iterationsTotal;
            result.loopStats.iterationsKept += stats.iterationsKept;
            result.loopStats.prunedSites += stats.prunedSites;
        }
    }
    live = 0;
    for (const auto &plan : result.plans)
        live += plan.liveSites();
    result.counts.afterLoop = live;
    stage_metrics.setSites(3, live);

    // Stage 4: bit-wise pruning.
    {
        auto timer = stage_metrics.timeStage(4);
        BitPruningResult bits = applyBitPruning(
            result.plans, config.bit.samples,
            config.bit.predZeroFlagOnly);
        result.sites = std::move(bits.sites);
        result.assumedMaskedWeight = bits.assumedMaskedWeight;
    }
    result.counts.afterBit = result.sites.size();
    stage_metrics.setSites(4, result.counts.afterBit);

    return result;
}

} // namespace fsp::pruning
