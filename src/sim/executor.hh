/**
 * @file
 * The functional SIMT executor: runs a decoded kernel over a full grid,
 * modelling per-thread register state, CTA shared memory and barriers,
 * branch divergence, crash detection (wild/misaligned addresses) and
 * hang detection (per-thread instruction budgets).  Optional hooks
 * collect traces and apply a single-bit destination-register fault.
 *
 * Two interchangeable engines execute the same semantics:
 *  - ExecEngine::Decoded (default): a pre-decoded DecodedProgram driven
 *    by a dense dispatch loop (see decoded.hh) -- the fast path every
 *    campaign runs on;
 *  - ExecEngine::Reference: the original per-step instruction walk,
 *    kept as the differential oracle (tests/test_decoded_executor.cc
 *    asserts bit-identical traces, outputs and footprints).
 * The Executor constructor alone chooses between them.
 */

#ifndef FSP_SIM_EXECUTOR_HH
#define FSP_SIM_EXECUTOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/decoded.hh"
#include "sim/fault.hh"
#include "sim/footprint.hh"
#include "sim/protection.hh"
#include "sim/launch.hh"
#include "sim/machine_state.hh"
#include "sim/memory.hh"
#include "sim/program.hh"
#include "sim/trace.hh"

namespace fsp::sim {

/** Terminal status of a kernel launch. */
enum class RunStatus : std::uint8_t
{
    Completed,   ///< every thread retired normally
    Crashed,     ///< a thread performed an invalid memory access
    Hung,        ///< a thread exceeded its dynamic-instruction budget
    SliceHazard, ///< a sliced run's hazard access went unresolved
};

std::string runStatusName(RunStatus status);

/** Interpreter engine selection (see file header). */
enum class ExecEngine : std::uint8_t
{
    Decoded,   ///< pre-decoded dispatch loop (default)
    Reference, ///< per-step instruction walk (differential oracle)
};

/**
 * A subset of a launch's CTAs, identified by linear CTA id (the
 * cz-major order in which the executor schedules CTAs).  Ids are kept
 * sorted and unique; ids beyond the grid are ignored.
 */
struct CtaRange
{
    std::vector<std::uint64_t> ctas;

    /** Range containing a single CTA. */
    static CtaRange single(std::uint64_t cta) { return {{cta}}; }

    /** Half-open contiguous range [begin, end). */
    static CtaRange contiguous(std::uint64_t begin, std::uint64_t end);

    /** Arbitrary id list; sorted and deduplicated. */
    static CtaRange of(std::vector<std::uint64_t> ids);
};

/**
 * Answers a sliced run's global accesses into bytes that CTAs outside
 * the slice read or write.  The executor performs every access on its
 * memory image first and consults the resolver only when the access
 * touches one of the resolver's hazard sets, so fault-free runs never
 * call it.  The resolver must outlive the run it serves.
 */
class SliceResolver
{
  public:
    SliceResolver() = default;
    SliceResolver(const SliceResolver &) = delete;
    SliceResolver &operator=(const SliceResolver &) = delete;
    virtual ~SliceResolver() = default;

    /** Bytes CTAs outside the slice write: loads touching them. */
    virtual const IntervalSet &loadHazards() const = 0;

    /** Bytes CTAs outside the slice read or write: stores touching
     *  them. */
    virtual const IntervalSet &storeHazards() const = 0;

    /**
     * CTA @p cta loaded @p width bytes at @p addr, touching
     * loadHazards().  @p value holds the bytes as read from the run's
     * image (little-endian); replace those the full grid would observe
     * differently.
     *
     * @return false to abort the run with RunStatus::SliceHazard.
     */
    virtual bool load(std::uint64_t cta, std::uint64_t addr,
                      unsigned width, std::uint64_t &value) = 0;

    /**
     * CTA @p cta stored @p width bytes at @p addr, touching
     * storeHazards(); the store is already in the run's image.
     *
     * @return false to abort the run with RunStatus::SliceHazard.
     */
    virtual bool store(std::uint64_t cta, std::uint64_t addr,
                       unsigned width) = 0;
};

/**
 * Scope a run to a CTA subset, optionally guarded by a resolver.
 *
 * The executor runs exactly the CTAs in @p range, in the same order
 * and with the same thread numbering as a full-grid run -- for CTAs
 * whose inputs are untouched by the skipped CTAs, execution is
 * bit-identical to their execution within the full grid.
 *
 * The resolver makes that safe under fault injection: a load or store
 * that reaches bytes the skipped CTAs write or read goes to it, and it
 * serves the value the full grid would load and records the store
 * (see faults/slicing.hh).  When it declines, the run aborts with
 * RunStatus::SliceHazard so the caller can fall back to a full-grid
 * run instead of silently diverging from it.
 */
struct CtaSlice
{
    CtaRange range;
    SliceResolver *resolver = nullptr; ///< may be null
};

/** Why Executor::stepCta stopped advancing a CTA. */
enum class CtaStepStatus : std::uint8_t
{
    Retired,   ///< every thread of the CTA exited
    Watermark, ///< the dynamic-instruction watermark was reached
    Crashed,   ///< a thread performed an invalid memory access
    Hung,      ///< a thread exceeded its dynamic-instruction budget
    Hazard,    ///< a sliced run's hazard access went unresolved
};

/** Sentinel watermark: run the CTA to retirement. */
inline constexpr std::uint64_t kNoWatermark = ~std::uint64_t{0};

/** Result of one simulated kernel launch. */
struct RunResult
{
    RunStatus status = RunStatus::Completed;
    std::uint64_t totalDynInstrs = 0; ///< across all threads
    std::uint64_t executedCtas = 0;   ///< CTAs actually run
    /** Machine-state bytes copied to resume from a checkpoint. */
    std::uint64_t restoredStateBytes = 0;
    std::string diagnostic;           ///< crash/hang detail (human readable)
    TraceData trace;                  ///< populated per TraceOptions
};

/**
 * Aggregate simulation counters an Executor feeds into an attached
 * sink (see Executor::setMetricsSink): plain accumulators, bumped once
 * per run() from the calling thread.  Attach a sink only to executors
 * driven from a single thread at a time (e.g. the analysis facade's
 * golden executor) -- the fields are unsynchronized by design so the
 * unobserved path stays free.
 */
struct ExecMetrics
{
    std::uint64_t runs = 0;         ///< completed run() calls
    std::uint64_t executedCtas = 0; ///< CTAs simulated, all runs
    std::uint64_t dynInstrs = 0;    ///< dynamic instructions, all runs
};

/**
 * Executes kernel launches.  Stateless between runs: all mutable state
 * (global memory) is passed in, so a campaign can restore a pristine
 * memory image and re-run cheaply.  run() reuses an internal scratch
 * MachineState, so a single Executor instance must be driven from one
 * thread at a time (campaign workers each own a cloned instance; this
 * matches the metrics-sink contract that already held).
 */
class Executor
{
  public:
    /**
     * @param program decoded kernel (must outlive the executor).
     * @param config launch geometry and parameters (copied).
     * @param engine interpreter engine.
     */
    Executor(const Program &program, LaunchConfig config,
             ExecEngine engine = ExecEngine::Decoded);

    /**
     * Run the launch to completion.
     *
     * @param gmem global memory image, mutated in place.
     * @param opts optional trace collection.
     * @param fault optional single-bit fault to apply.
     * @param slice optional CTA subset to execute (see CtaSlice).
     * @param resume optional checkpointed CTA state: the run starts at
     *        resume->ctaLinear() by restoring that snapshot into the
     *        scratch state (the caller must have placed global memory
     *        in the matching condition, e.g. via
     *        GlobalMemory::applyDelta) and then continues with any
     *        later CTAs selected by @p slice.  CTAs before the resume
     *        point are skipped entirely.
     * @param protection optional protection plan: faults from @p fault
     *        firing inside its coverage are suppressed and recorded as
     *        detections instead of applied (see sim/protection.hh).
     */
    RunResult run(GlobalMemory &gmem, const TraceOptions *opts = nullptr,
                  FaultPlan *fault = nullptr,
                  const CtaSlice *slice = nullptr,
                  const StateSnapshot *resume = nullptr,
                  const ProtectionPlan *protection = nullptr) const;

    /** Pristine pre-execution state of one CTA of this launch. */
    MachineState initialCtaState(std::uint64_t ctaLinear) const;

    /**
     * Advance one CTA until it retires, crashes, hangs, hits a slice
     * hazard, or reaches @p watermark total executed instructions.  On
     * Watermark the state is a valid capture point: copy it (or
     * capture a StateSnapshot) and call stepCta again with a higher
     * watermark to continue, or resume from the snapshot later via
     * run().
     *
     * @param state CTA state, advanced in place.
     * @param gmem global memory image, mutated in place.
     * @param watermark stop once state.executedDynInstrs reaches this.
     * @param fault optional single-bit fault to apply.
     * @param slice optional resolver (the range is ignored here;
     *        stepping is inherently single-CTA).
     * @param diagnostic receives crash/hang/hazard detail when non-null.
     * @param protection optional protection plan (see run()).
     */
    CtaStepStatus stepCta(MachineState &state, GlobalMemory &gmem,
                          std::uint64_t watermark = kNoWatermark,
                          FaultPlan *fault = nullptr,
                          const CtaSlice *slice = nullptr,
                          std::string *diagnostic = nullptr,
                          const ProtectionPlan *protection = nullptr) const;

    const LaunchConfig &config() const { return config_; }
    const Program &program() const { return program_; }

    /** The pre-decoded form this executor dispatches on. */
    const DecodedProgram &decoded() const { return *decoded_; }

    /** Active interpreter engine. */
    ExecEngine engine() const { return engine_; }

    /**
     * Attach a counter sink fed once per run() (not owned; null
     * detaches).  Copied executors inherit the pointer, so only attach
     * to an executor that is never cloned into worker threads.
     */
    void setMetricsSink(ExecMetrics *sink) { metrics_ = sink; }

  private:
    /** Fold one run's counters into the attached sink, if any. */
    void
    noteRun(const RunResult &result) const
    {
        if (metrics_ == nullptr)
            return;
        metrics_->runs++;
        metrics_->executedCtas += result.executedCtas;
        metrics_->dynInstrs += result.totalDynInstrs;
    }

    /** Re-initialise @p state for @p ctaLinear, reusing its buffers. */
    void resetCtaState(MachineState &state,
                       std::uint64_t ctaLinear) const;

    const Program &program_;
    LaunchConfig config_;
    /** Shared with copies (injector clones) -- decoded once. */
    std::shared_ptr<const DecodedProgram> decoded_;
    ExecEngine engine_;
    ExecMetrics *metrics_ = nullptr; ///< not owned; see setMetricsSink
    /** run()'s reusable CTA state; makes run() non-reentrant. */
    mutable MachineState scratch_;
};

} // namespace fsp::sim

#endif // FSP_SIM_EXECUTOR_HH
