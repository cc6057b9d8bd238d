/**
 * @file
 * Analysis facade implementation.
 */

#include "analysis/analyzer.hh"

#include <set>
#include <utility>

#include "pruning/instr_common.hh"
#include "sim/section.hh"
#include "util/logging.hh"

namespace fsp::analysis {

KernelAnalysis::KernelAnalysis(const apps::KernelSpec &spec,
                               apps::Scale scale, std::uint64_t input_seed)
    : KernelAnalysis(spec, scale, AnalysisConfig{}, input_seed)
{
}

KernelAnalysis::KernelAnalysis(const apps::KernelSpec &spec,
                               apps::Scale scale,
                               const AnalysisConfig &config,
                               std::uint64_t input_seed)
    : spec_(spec), setup_(spec.setup(scale, input_seed)),
      injector_options_(config.engine)
{
    executor_ =
        std::make_unique<sim::Executor>(setup_.program, setup_.launch);
    executor_->setMetricsSink(config.execMetrics);
    if (!config.sectionCacheDir.empty())
        section_cache_ =
            std::make_unique<faults::SectionCache>(config.sectionCacheDir);
}

const faults::FaultSpace &
KernelAnalysis::space()
{
    if (!space_)
        space_.emplace(*executor_, setup_.memory);
    return *space_;
}

faults::Injector &
KernelAnalysis::injector()
{
    if (!injector_)
        injector_.emplace(setup_.program, setup_.launch, setup_.memory,
                          setup_.outputs, injector_options_);
    return *injector_;
}

pruning::PruningResult
KernelAnalysis::prune(const pruning::PruningConfig &config,
                      metrics::Registry *metrics)
{
    const faults::SlicingPlan *slicing =
        injector_options_.slicing ? &injector().slicingPlan() : nullptr;
    return pruning::prunePipeline(*executor_, setup_.memory, space(),
                                  config, slicing, metrics);
}

faults::OutcomeDist
KernelAnalysis::runPrunedCampaign(const pruning::PruningResult &pruned)
{
    return runPrunedCampaign(pruned, faults::CampaignOptions{});
}

faults::OutcomeDist
KernelAnalysis::runPrunedCampaign(const pruning::PruningResult &pruned,
                                  const faults::CampaignOptions &options)
{
    return runPrunedCampaignDetailed(pruned, options).dist;
}

faults::CampaignResult
KernelAnalysis::runPrunedCampaignDetailed(
    const pruning::PruningResult &pruned,
    const faults::CampaignOptions &options)
{
    faults::CampaignOptions effective = options;
    // Never attach the section cache to a protected campaign: cache
    // entries are recorded without protection active, so replaying them
    // (or recording protected outcomes for later unprotected reuse)
    // would corrupt results in both directions.
    if (section_cache_ && !effective.sectionCache && !effective.protection) {
        if (!section_index_)
            buildSectionIndex(pruned.sites);
        effective.sectionCache = section_cache_.get();
        effective.sectionIndex = &*section_index_;
    }
    faults::CampaignResult result =
        campaignEngine(effective).run(pruned.sites);
    result.dist.addWeight(faults::Outcome::Masked,
                          pruned.assumedMaskedWeight);
    return result;
}

const faults::SectionIndex &
KernelAnalysis::buildSectionIndex(
    const std::vector<faults::WeightedSite> &sites)
{
    // One value-recorded traced run over every distinct thread the
    // site list touches (ordered set: the lowest thread id is the
    // deterministic alignment base).
    std::set<std::uint64_t> threads;
    for (const faults::WeightedSite &weighted : sites)
        threads.insert(weighted.site.thread);

    sim::TraceOptions opts;
    opts.recordValues = true;
    for (std::uint64_t thread : threads)
        opts.traceThreads.insert(thread);

    sim::GlobalMemory scratch = setup_.memory;
    sim::RunResult run = executor_->run(scratch, &opts);
    if (run.status != sim::RunStatus::Completed)
        fatal("section-index profiling run failed: ", run.diagnostic);

    faults::SectionIndex index(faults::campaignContextHash(
        setup_.launch, injector().outputs(),
        injector().goldenOutputs()));
    const std::vector<sim::DynRecord> *base = nullptr;
    for (std::uint64_t thread : threads) {
        const std::vector<sim::DynRecord> &trace =
            run.trace.dynTraces.at(thread);
        sim::SectionSplitOptions split;
        if (base) {
            // Cut at the common-block prefix/suffix boundaries so
            // aligned threads share section frontiers with the base.
            split.extraBoundaries =
                pruning::alignmentBoundaries(*base, trace);
        } else {
            base = &trace;
        }
        index.addThread(thread, trace,
                        sim::splitTrace(setup_.program.instructions(),
                                        trace, split));
    }
    section_index_ = std::move(index);
    return *section_index_;
}

faults::CampaignResult
KernelAnalysis::runBaseline(std::size_t runs, std::uint64_t seed)
{
    return runBaseline(runs, seed, faults::CampaignOptions{});
}

faults::CampaignResult
KernelAnalysis::runBaseline(std::size_t runs, std::uint64_t seed,
                            const faults::CampaignOptions &options)
{
    Prng prng(seed);
    return campaignEngine(options).run(space(), runs, prng);
}

faults::CampaignEngine &
KernelAnalysis::campaignEngine(const faults::CampaignOptions &options)
{
    // Without a model in the options the workers inherit injector()'s,
    // which may have been set since the cached engine was built.
    const faults::Injector &prototype = injector();
    const bool stale_model =
        engine_ && !options.faultModel &&
        (engine_->faultModel().identity() !=
             prototype.faultModel().identity() ||
         engine_->faultModelSeed() != prototype.faultModelSeed());
    if (!engine_ || stale_model ||
        !engine_options_.sameEngineConfig(options)) {
        engine_ =
            std::make_unique<faults::CampaignEngine>(prototype, options);
        engine_options_ = options;
    } else {
        // sameEngineConfig ignores the result-neutral fields, so a
        // cache hit must still re-target them -- a stale observer or
        // section-index pointer from an earlier caller would dangle.
        engine_->setObserver(options.observer);
        engine_->setSectionCache(options.sectionCache,
                                 options.sectionIndex);
        engine_->setKeepSiteOutcomes(options.keepSiteOutcomes);
    }
    return *engine_;
}

} // namespace fsp::analysis
