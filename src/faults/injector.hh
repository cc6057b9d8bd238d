/**
 * @file
 * The fault injector: runs one kernel launch per fault site against a
 * pristine memory image and classifies the outcome against the golden
 * (fault-free) output.
 *
 * When the golden run's per-CTA footprints prove the kernel's CTAs
 * independent (see faults/slicing.hh), injection runs execute only the
 * faulty CTA against a dirty-range-restored image and compare only that
 * CTA's share of the output -- bit-identical outcomes at a fraction of
 * the work.  A fault that wanders into another CTA's footprint is
 * answered inside the slice: a HazardResolver (faults/slicing.hh)
 * serves a cross-CTA load the value the full grid would read, and a
 * cross-CTA store either settles in-slice or re-runs the closure of
 * later CTAs that read a stored byte.  Only when the resolver declines
 * (RunStatus::SliceHazard) is the site replayed on the full grid, so
 * the sliced engine never changes a classification.
 *
 * Orthogonally, golden-run checkpoints (faults/checkpoint.hh) cut the
 * temporal axis: injections resume from the latest capture point
 * at-or-before the fault's dynamic index instead of re-executing the
 * kernel from instruction zero.  Both axes compose, both are chosen
 * once in InjectorOptions, and neither ever changes a classification.
 */

#ifndef FSP_FAULTS_INJECTOR_HH
#define FSP_FAULTS_INJECTOR_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "faults/checkpoint.hh"
#include "faults/fault_model.hh"
#include "faults/fault_site.hh"
#include "faults/outcome.hh"
#include "faults/output_spec.hh"
#include "faults/sdc_anatomy.hh"
#include "faults/slicing.hh"
#include "sim/executor.hh"

namespace fsp {
class JsonWriter;
} // namespace fsp

namespace fsp::faults {

class CampaignObserver;

/**
 * Counters describing how injection runs were executed.
 *
 * Every field must be a std::uint64_t counter: merge()/since() cover
 * the full field list and a static_assert on the struct size (see
 * injector.cc) catches fields added without updating them.
 */
struct InjectionStats
{
    std::uint64_t injections = 0;      ///< inject() calls
    std::uint64_t slicedRuns = 0;      ///< classified via the sliced path
    std::uint64_t fullGridRuns = 0;    ///< full-grid executor runs
    std::uint64_t hazardFallbacks = 0; ///< sites replayed on the full grid
    std::uint64_t hazardLoadsInSlice = 0; ///< sliced runs serving a
                                          ///< cross-CTA load
    std::uint64_t closureRuns = 0; ///< multi-CTA closure re-runs
    std::uint64_t closureCtas = 0; ///< CTAs those closure runs covered
    std::uint64_t invalidSites = 0;    ///< sites rejected by validation
    std::uint64_t executedCtas = 0;    ///< CTAs simulated, all runs
    std::uint64_t restoredBytes = 0;   ///< bytes copied by restore/delta
    std::uint64_t checkpointRestores = 0; ///< runs resumed from a checkpoint
    std::uint64_t skippedDynInstrs = 0;   ///< golden instrs not re-executed
    std::uint64_t detectedFaults = 0; ///< suppressed by a protection plan

    /** Accumulate another tally into this one. */
    void merge(const InjectionStats &other);

    /** Counter deltas relative to an earlier snapshot. */
    InjectionStats since(const InjectionStats &before) const;

    /** One-line human-readable rendering. */
    std::string summary() const;
};

/**
 * Emit every InjectionStats counter as fields of the currently open
 * JSON object (the machine-readable counterpart of summary(), shared
 * by the fsp and resilience_report --json outputs).
 */
void writeInjectionStats(JsonWriter &json, const InjectionStats &stats);

/**
 * The execution strategy, fixed at Injector construction and carried
 * by clone(), so every campaign worker runs the prototype's strategy.
 * Both fast paths are pure speedups: outcomes are bit-identical with
 * either switched off (the A/B behind --no-slicing / --no-checkpoints).
 */
struct InjectorOptions
{
    /** Run only the faulty CTA when the kernel's CTAs are independent. */
    bool slicing = true;

    /** Record golden checkpoints and resume injections from them. */
    bool checkpoints = true;

    /** Recording cadence when checkpoints are on. */
    CheckpointOptions checkpointing{};
};

/**
 * Injects single-bit destination-register faults and classifies run
 * outcomes.  Construction performs the golden run (which must complete)
 * and derives the hang-detection budget from the observed per-thread
 * dynamic instruction counts, the per-thread golden iCnt used for site
 * validation, and the CTA-slicing plan.
 */
class Injector
{
  public:
    /**
     * @param program decoded kernel (must outlive the injector).
     * @param config launch configuration.
     * @param image pristine initialised global memory (copied; restored
     *        before every injection).
     * @param outputs the application's output regions.
     * @param options execution strategy (slicing, checkpoints).
     */
    Injector(const sim::Program &program, const sim::LaunchConfig &config,
             const sim::GlobalMemory &image,
             std::vector<OutputRegion> outputs,
             const InjectorOptions &options = {});

    /**
     * Duplicate this injector without redoing the golden run: the
     * golden outputs, hang budget, slicing plan, pristine image and
     * execution strategy are copied (the plan itself is shared,
     * immutable).  The clone references the same Program and starts
     * with zeroed stats.  This is how the parallel campaign engine
     * gives each worker a private injector while paying for
     * golden-state derivation only once.
     */
    std::unique_ptr<Injector> clone() const;

    /**
     * Inject one fault and classify the outcome.
     *
     * The active fault model (single-bit destination flip by default)
     * maps the site triple to the executed fault plan.  Sites the
     * model rejects -- universally, a dynamic index beyond the target
     * thread's golden instruction count or a thread id outside the
     * launch; per-model, e.g. a shared-memory fault in a kernel
     * without shared memory -- classify as Outcome::Invalid with a
     * diagnostic: they denote a caller bug, not a masked fault.
     */
    Outcome inject(const FaultSite &site);

    /**
     * As inject(site), additionally filling @p detail (when non-null)
     * with the static instruction the fault first corrupted and, for
     * SDC outcomes, the corruption anatomy.
     */
    Outcome inject(const FaultSite &site, InjectionDetail *detail);

    /** @{ Fault-model strategy selection (single-bit by default). */
    void setFaultModel(std::shared_ptr<const FaultModel> model,
                       std::uint64_t modelSeed = 0);
    const FaultModel &faultModel() const { return *model_; }
    std::shared_ptr<const FaultModel> faultModelPtr() const
    {
        return model_;
    }
    std::uint64_t faultModelSeed() const { return model_ctx_.seed; }
    /** @} */

    /** @{ Protection-plan selection (none by default).  Faults firing
     *  inside the plan's coverage are suppressed and counted as
     *  detections (stats().detectedFaults); the run then classifies
     *  against golden outputs exactly as if the fault never fired.
     *  Immutable once set, shared across clone()s like the model. */
    void
    setProtectionPlan(std::shared_ptr<const sim::ProtectionPlan> plan)
    {
        protection_ = std::move(plan);
    }
    std::shared_ptr<const sim::ProtectionPlan> protectionPlan() const
    {
        return protection_;
    }
    /** @} */

    /** Total injection attempts so far (== stats().injections). */
    std::uint64_t runsPerformed() const { return stats_.injections; }

    /** Execution counters for this injector. */
    const InjectionStats &stats() const { return stats_; }

    /** Maximum golden per-thread iCnt (budget basis). */
    std::uint64_t goldenMaxICnt() const { return golden_max_icnt_; }

    /** Golden dynamic instruction count of one thread. */
    std::uint64_t
    goldenICnt(std::uint64_t thread) const
    {
        return golden_icnt_[thread];
    }

    /** @{ CTA slicing (InjectorOptions::slicing). */
    /** Will injections actually use the sliced path? */
    bool
    slicingActive() const
    {
        return options_.slicing && slicing_->independent();
    }

    /** The CTA-independence analysis result for this kernel. */
    const SlicingPlan &slicingPlan() const { return *slicing_; }

    /** "sliced (...)" / "full-grid (...)" decision string. */
    std::string slicingDescription() const;
    /** @} */

    /** @{ Checkpointed temporal replay (InjectorOptions::checkpoints). */
    /** Will injections actually resume from checkpoints? */
    bool
    checkpointsActive() const
    {
        return checkpoints_ && !checkpoints_->empty();
    }

    /** The recorded store; null when built with checkpoints off. */
    const CheckpointStore *checkpointStore() const
    {
        return checkpoints_.get();
    }

    /** "checkpoints on (...)" / "checkpoints off (...)" string. */
    std::string checkpointDescription() const;
    /** @} */

    /**
     * Attach a campaign observer receiving this injector's
     * CheckpointRestored / SliceHazard events, tagged with @p worker.
     * Not owned; null detaches.  The campaign engine scopes this to one
     * run (see InjectorObserverScope); clones start detached.
     */
    void
    setObserver(CampaignObserver *observer, unsigned worker)
    {
        observer_ = observer;
        observer_worker_ = worker;
    }

    /** The executor used for injection runs (with hang budget set). */
    const sim::Executor &executor() const { return executor_; }

    /** The pristine memory image. */
    const sim::GlobalMemory &image() const { return image_; }

    /** @{ Campaign identity inputs for the section cache (analysis
     *  builds campaignContextHash / the SectionIndex from these). */
    /** The program this injector runs. */
    const sim::Program &program() const { return program_; }

    /** The declared output regions, in declaration order. */
    const std::vector<OutputRegion> &outputs() const { return outputs_; }

    /** Golden output bytes, parallel to outputs(). */
    const std::vector<std::vector<std::uint8_t>> &
    goldenOutputs() const
    {
        return golden_outputs_;
    }
    /** @} */

  private:
    Injector(const Injector &) = default;

    sim::LaunchConfig budgetedConfig(const sim::LaunchConfig &config);

    /**
     * The classification tail every run shares: count a detection,
     * note the corrupted instruction, and settle runs that need no
     * output compare (Other when aborted, Masked when the fault never
     * fired).  nullopt means "compare the outputs".
     */
    std::optional<Outcome> settleRun(const FaultSite &site,
                                     const sim::FaultPlan &plan,
                                     const sim::RunResult &result,
                                     InjectionDetail *detail);
    Outcome classifyOutputs(
        const std::vector<std::vector<std::uint8_t>> &test,
        InjectionDetail *detail);
    std::vector<std::vector<std::uint8_t>>
    reconstructSlicedOutputs(const HazardResolver &resolver);
    /** Apply @p checkpoint's memory delta and count the restore. */
    void restoreCheckpoint(const CtaCheckpoint &checkpoint,
                           std::uint64_t cta);

    // NOTE: golden state and the slicing plan are declared before
    // executor_ because budgetedConfig() -- invoked while initialising
    // executor_ -- performs the golden run and fills them in.
    const sim::Program &program_;
    InjectorOptions options_;
    sim::GlobalMemory image_;
    std::vector<OutputRegion> outputs_;
    std::uint64_t golden_max_icnt_ = 0;
    std::vector<std::uint64_t> golden_icnt_;
    std::vector<std::vector<std::uint8_t>> golden_outputs_;
    std::shared_ptr<const SlicingPlan> slicing_;
    sim::Executor executor_;
    sim::GlobalMemory scratch_;
    /** Immutable once recorded; shared across clone()s like slicing_. */
    std::shared_ptr<const CheckpointStore> checkpoints_;
    /** Immutable strategy, shared across clone()s. */
    std::shared_ptr<const FaultModel> model_;
    /** Immutable protection set, shared across clone()s; may be null. */
    std::shared_ptr<const sim::ProtectionPlan> protection_;
    /** Launch facts handed to the model; goldenICnt stays per-clone. */
    ModelContext model_ctx_;
    InjectionStats stats_;
    /** Event sink for checkpoint/hazard events; never cloned. */
    CampaignObserver *observer_ = nullptr;
    unsigned observer_worker_ = 0;
};

} // namespace fsp::faults

#endif // FSP_FAULTS_INJECTOR_HH
