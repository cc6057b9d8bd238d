/**
 * @file
 * Public analysis facade: bundles one kernel's setup, fault-space
 * enumeration, injector, progressive pruning, and campaign drivers
 * behind a single object.  This is the API the examples and the bench
 * harnesses program against.
 *
 * Typical use:
 *
 *     const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
 *     analysis::KernelAnalysis ka(*spec, apps::Scale::Small);
 *     auto pruned = ka.prune({});                  // 4-stage pipeline
 *     auto estimate = ka.runPrunedCampaign(pruned); // weighted profile
 *     auto baseline = ka.runBaseline(3000, 7);      // random sampling
 */

#ifndef FSP_ANALYSIS_ANALYZER_HH
#define FSP_ANALYSIS_ANALYZER_HH

#include <memory>
#include <optional>
#include <string>

#include "apps/app.hh"
#include "faults/campaign_engine.hh"
#include "faults/fault_space.hh"
#include "faults/injector.hh"
#include "faults/section_cache.hh"
#include "pruning/pipeline.hh"
#include "sim/executor.hh"

namespace fsp::analysis {

/**
 * Everything a KernelAnalysis is built with, fixed at construction.
 * The execution strategy reaches the injector when it is first built,
 * so constructing an analysis never triggers the golden run early.
 */
struct AnalysisConfig
{
    /** Execution strategy (CTA slicing, checkpointed replay) of the
     * facade's injector and of every campaign engine cloned from it. */
    faults::InjectorOptions engine;

    /** Section-cache directory for incremental campaigns; empty
     * disables the reuse path. */
    std::string sectionCacheDir;

    /** Counter sink for the facade's own profiling executor (must
     * outlive the analysis); null leaves it detached.  Injectors build
     * their own executors, so campaign workers never touch it: it only
     * counts the facade's single-threaded enumeration and profiling
     * runs. */
    sim::ExecMetrics *execMetrics = nullptr;
};

/** One kernel's complete analysis context. */
class KernelAnalysis
{
  public:
    /**
     * Set up the kernel and its executor.
     *
     * @param spec registered kernel.
     * @param scale geometry preset.
     * @param input_seed seed for workload input generation.
     */
    KernelAnalysis(const apps::KernelSpec &spec, apps::Scale scale,
                   std::uint64_t input_seed = 42);

    /** As above, built with @p config. */
    KernelAnalysis(const apps::KernelSpec &spec, apps::Scale scale,
                   const AnalysisConfig &config,
                   std::uint64_t input_seed = 42);

    const apps::KernelSpec &spec() const { return spec_; }
    const sim::Executor &executor() const { return *executor_; }
    const sim::Program &program() const { return setup_.program; }
    const apps::KernelSetup &setup() const { return setup_; }

    /** Eq. 1 enumeration (lazy; one fault-free profiling run). */
    const faults::FaultSpace &space();

    /**
     * Fault injector (lazy; runs the golden execution once).  Campaign
     * engines clone it, so a model set here with setFaultModel() reaches
     * every worker of the next campaign that names no model itself.
     */
    faults::Injector &injector();

    /** @{ CTA-sliced engine state (AnalysisConfig::engine.slicing). */
    /** Will injection runs use the sliced path? */
    bool slicingActive() { return injector().slicingActive(); }

    /** The kernel's CTA-independence decision. */
    const faults::SlicingPlan &
    slicingPlan()
    {
        return injector().slicingPlan();
    }
    /** @} */

    /** Will injection runs resume from checkpoints
     *  (AnalysisConfig::engine.checkpoints)? */
    bool checkpointsActive() { return injector().checkpointsActive(); }

    /** The model the facade's injector currently injects under
     *  (single-bit destination flip by default). */
    const faults::FaultModel &faultModel() { return injector().faultModel(); }

    /**
     * Run the progressive pruning pipeline.  When the injector slices,
     * its slicing plan scopes the traced profiling run to the
     * representatives' CTAs.  @p metrics optionally receives the
     * pipeline's per-stage gauges (see prunePipeline); it never
     * affects results.
     */
    pruning::PruningResult prune(const pruning::PruningConfig &config,
                                 metrics::Registry *metrics = nullptr);

    /**
     * Exhaustive weighted injection over a pruned space; the
     * assumed-masked weight is folded into the masked bucket.
     */
    faults::OutcomeDist
    runPrunedCampaign(const pruning::PruningResult &pruned);

    /**
     * Parallel variant: same result bit-for-bit (the engine folds
     * outcomes in site order), campaign sharded per @p options.
     */
    faults::OutcomeDist
    runPrunedCampaign(const pruning::PruningResult &pruned,
                      const faults::CampaignOptions &options);

    /**
     * As the parallel runPrunedCampaign but returning the engine's
     * full CampaignResult -- SDC anatomy profile, per-static ranking,
     * run counters -- with the assumed-masked weight already folded
     * into the distribution.  This is what the tools' --json rides on.
     * When a section-cache directory is attached
     * (AnalysisConfig::sectionCacheDir), the facade builds the
     * SectionIndex for the pruned site list on first use and runs the
     * campaign with the incremental reuse path enabled.
     */
    faults::CampaignResult
    runPrunedCampaignDetailed(const pruning::PruningResult &pruned,
                              const faults::CampaignOptions &options);

    /**
     * @{ Incremental campaigns.  A cache directory
     * (AnalysisConfig::sectionCacheDir) makes every
     * runPrunedCampaignDetailed consult (and feed) the content-addressed
     * section result cache.  The index can also be built eagerly for
     * engine callers that drive CampaignOptions themselves.
     */
    faults::SectionCache *sectionCache() { return section_cache_.get(); }

    /**
     * Build (and cache in the facade) the section index for @p sites:
     * one value-recorded traced run over the distinct threads the
     * sites touch, split at barrier / executed-stride / common-block
     * alignment boundaries (pruning::alignmentBoundaries against the
     * lowest-id traced thread).
     */
    const faults::SectionIndex &
    buildSectionIndex(const std::vector<faults::WeightedSite> &sites);
    /** @} */

    /** Statistical baseline campaign (uniform random sites). */
    faults::CampaignResult runBaseline(std::size_t runs,
                                       std::uint64_t seed);

    /** Parallel variant of the baseline; result identical to serial. */
    faults::CampaignResult runBaseline(std::size_t runs,
                                       std::uint64_t seed,
                                       const faults::CampaignOptions &options);

    /**
     * The campaign engine, cloned from injector() (golden run shared
     * with the serial path).  Rebuilt when @p options configures a
     * different engine (see CampaignOptions::sameEngineConfig) or,
     * when @p options names no fault model, when injector()'s model or
     * model seed changed since the cached engine was built; the cached
     * engine's most recent CampaignStats are reachable through the
     * returned reference's lastStats().
     */
    faults::CampaignEngine &
    campaignEngine(const faults::CampaignOptions &options = {});

  private:
    const apps::KernelSpec &spec_;
    apps::KernelSetup setup_;
    std::unique_ptr<sim::Executor> executor_;
    std::optional<faults::FaultSpace> space_;
    std::optional<faults::Injector> injector_;
    std::unique_ptr<faults::CampaignEngine> engine_;
    faults::CampaignOptions engine_options_; ///< config engine_ was built with
    faults::InjectorOptions injector_options_; ///< strategy for injector_
    std::unique_ptr<faults::SectionCache> section_cache_;
    std::optional<faults::SectionIndex> section_index_;
};

} // namespace fsp::analysis

#endif // FSP_ANALYSIS_ANALYZER_HH
