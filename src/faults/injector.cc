/**
 * @file
 * Fault injector implementation.
 */

#include "faults/injector.hh"

#include <algorithm>
#include <cstdio>

#include "faults/observer.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace fsp::faults {

namespace {

/**
 * Closure rounds before a site falls back to the full grid.  Each
 * round adds the CTAs that read what the previous round stored; real
 * closures settle in one or two.
 */
constexpr unsigned kMaxClosureRounds = 8;

} // namespace

// Trips when a counter is added to InjectionStats without updating
// merge(), since(), summary() and the tools' JSON emission.
static_assert(sizeof(InjectionStats) == 13 * sizeof(std::uint64_t),
              "InjectionStats field list changed: update merge(), "
              "since(), summary() and writeInjectionStats()");

void
InjectionStats::merge(const InjectionStats &other)
{
    injections += other.injections;
    slicedRuns += other.slicedRuns;
    fullGridRuns += other.fullGridRuns;
    hazardFallbacks += other.hazardFallbacks;
    hazardLoadsInSlice += other.hazardLoadsInSlice;
    closureRuns += other.closureRuns;
    closureCtas += other.closureCtas;
    invalidSites += other.invalidSites;
    executedCtas += other.executedCtas;
    restoredBytes += other.restoredBytes;
    checkpointRestores += other.checkpointRestores;
    skippedDynInstrs += other.skippedDynInstrs;
    detectedFaults += other.detectedFaults;
}

InjectionStats
InjectionStats::since(const InjectionStats &before) const
{
    InjectionStats delta;
    delta.injections = injections - before.injections;
    delta.slicedRuns = slicedRuns - before.slicedRuns;
    delta.fullGridRuns = fullGridRuns - before.fullGridRuns;
    delta.hazardFallbacks = hazardFallbacks - before.hazardFallbacks;
    delta.hazardLoadsInSlice =
        hazardLoadsInSlice - before.hazardLoadsInSlice;
    delta.closureRuns = closureRuns - before.closureRuns;
    delta.closureCtas = closureCtas - before.closureCtas;
    delta.invalidSites = invalidSites - before.invalidSites;
    delta.executedCtas = executedCtas - before.executedCtas;
    delta.restoredBytes = restoredBytes - before.restoredBytes;
    delta.checkpointRestores = checkpointRestores - before.checkpointRestores;
    delta.skippedDynInstrs = skippedDynInstrs - before.skippedDynInstrs;
    delta.detectedFaults = detectedFaults - before.detectedFaults;
    return delta;
}

std::string
InjectionStats::summary() const
{
    char buf[448];
    std::snprintf(
        buf, sizeof(buf),
        "injections %llu | sliced %llu | full-grid %llu | "
        "hazard-fallbacks %llu | hazard-loads-in-slice %llu | "
        "closures %llu (%llu ctas) | invalid %llu | ctas %llu | "
        "restored %llu B | ckpt-restores %llu | skipped %llu instrs | "
        "detected %llu",
        static_cast<unsigned long long>(injections),
        static_cast<unsigned long long>(slicedRuns),
        static_cast<unsigned long long>(fullGridRuns),
        static_cast<unsigned long long>(hazardFallbacks),
        static_cast<unsigned long long>(hazardLoadsInSlice),
        static_cast<unsigned long long>(closureRuns),
        static_cast<unsigned long long>(closureCtas),
        static_cast<unsigned long long>(invalidSites),
        static_cast<unsigned long long>(executedCtas),
        static_cast<unsigned long long>(restoredBytes),
        static_cast<unsigned long long>(checkpointRestores),
        static_cast<unsigned long long>(skippedDynInstrs),
        static_cast<unsigned long long>(detectedFaults));
    return buf;
}

void
writeInjectionStats(JsonWriter &json, const InjectionStats &stats)
{
    json.field("injections", stats.injections);
    json.field("slicedRuns", stats.slicedRuns);
    json.field("fullGridRuns", stats.fullGridRuns);
    json.field("hazardFallbacks", stats.hazardFallbacks);
    json.field("hazardLoadsInSlice", stats.hazardLoadsInSlice);
    json.field("closureRuns", stats.closureRuns);
    json.field("closureCtas", stats.closureCtas);
    json.field("invalidSites", stats.invalidSites);
    json.field("executedCtas", stats.executedCtas);
    json.field("restoredBytes", stats.restoredBytes);
    json.field("checkpointRestores", stats.checkpointRestores);
    json.field("skippedDynInstrs", stats.skippedDynInstrs);
    json.field("detectedFaults", stats.detectedFaults);
}

sim::LaunchConfig
Injector::budgetedConfig(const sim::LaunchConfig &config)
{
    // Golden run with a generous default budget; must complete.
    sim::Executor golden_exec(program_, config);
    sim::GlobalMemory scratch = image_;
    sim::TraceOptions opts;
    opts.perThreadProfiles = true;
    opts.ctaFootprints = true;
    sim::RunResult golden = golden_exec.run(scratch, &opts);
    if (golden.status != sim::RunStatus::Completed)
        fatal("golden run failed: ", golden.diagnostic);

    golden_icnt_.reserve(golden.trace.profiles.size());
    for (const auto &p : golden.trace.profiles) {
        golden_max_icnt_ = std::max(golden_max_icnt_, p.iCnt);
        golden_icnt_.push_back(p.iCnt);
    }

    golden_outputs_ = captureOutputs(scratch, outputs_);
    slicing_ = std::make_shared<const SlicingPlan>(SlicingPlan::analyze(
        std::move(golden.trace.ctaFootprints), scratch));

    // A corrupted loop counter can legitimately lengthen execution; the
    // hang threshold is several times the longest golden thread plus a
    // fixed slack so short kernels are not flagged spuriously.
    sim::LaunchConfig budgeted = config;
    budgeted.maxDynInstrPerThread = 4 * golden_max_icnt_ + 4096;
    return budgeted;
}

Injector::Injector(const sim::Program &program,
                   const sim::LaunchConfig &config,
                   const sim::GlobalMemory &image,
                   std::vector<OutputRegion> outputs,
                   const InjectorOptions &options)
    : program_(program), options_(options), image_(image),
      outputs_(std::move(outputs)),
      executor_(program_, budgetedConfig(config)), scratch_(image_)
{
    // The caller's setup pokes left dirty marks in the copied images;
    // scratch_ already equals image_, so start tracking from clean.
    scratch_.resetDirtyTracking();

    // Recording is eager so clone() can share the immutable store:
    // workers never record, they only read.
    if (options_.checkpoints) {
        checkpoints_ = std::make_shared<const CheckpointStore>(
            CheckpointStore::record(executor_, image_, golden_icnt_,
                                    options_.checkpointing));
    }

    model_ = defaultFaultModel();
    model_ctx_.threads = golden_icnt_.size();
    model_ctx_.blockThreads = executor_.config().block.count();
    model_ctx_.globalBase = sim::GlobalMemory::kBaseAddr;
    model_ctx_.globalBytes = image_.allocatedBytes();
    model_ctx_.sharedBytes = executor_.config().sharedBytes;
    model_ctx_.goldenICnt = &golden_icnt_;
}

std::unique_ptr<Injector>
Injector::clone() const
{
    std::unique_ptr<Injector> copy(new Injector(*this));
    copy->stats_ = InjectionStats{};
    copy->observer_ = nullptr;
    copy->observer_worker_ = 0;
    // The copied context still points at *this* injector's golden
    // trace; repoint it at the clone's own copy.
    copy->model_ctx_.goldenICnt = &copy->golden_icnt_;
    return copy;
}

void
Injector::setFaultModel(std::shared_ptr<const FaultModel> model,
                        std::uint64_t modelSeed)
{
    FSP_ASSERT(model != nullptr, "fault model must not be null");
    model_ = std::move(model);
    model_ctx_.seed = modelSeed;
}

std::string
Injector::slicingDescription() const
{
    std::string text = slicingActive() ? "sliced (" : "full-grid (";
    if (!options_.slicing)
        text += "slicing disabled";
    else
        text += slicing_->reason();
    if (slicing_->independent()) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), ", %llu CTAs",
                      static_cast<unsigned long long>(slicing_->ctaCount()));
        text += buf;
    }
    text += ")";
    return text;
}

std::string
Injector::checkpointDescription() const
{
    if (!checkpoints_)
        return "checkpoints off (not recorded)";
    if (checkpoints_->empty())
        return "checkpoints off (all CTAs below capture interval)";
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "checkpoints on (%llu capture points, %.1f KiB)",
                  static_cast<unsigned long long>(
                      checkpoints_->totalCheckpoints()),
                  static_cast<double>(checkpoints_->byteSize()) / 1024.0);
    return buf;
}

/**
 * Exact masked/SDC test for a completed sliced run.
 *
 * Reconstructs what the full-grid faulty image would hold inside the
 * output regions: the run's own value on resolver.runBytes() (the
 * run's CTAs' write footprints and the chunk-granular dirty set of
 * this run, minus bytes CTAs outside the run write unless the run
 * stored them after their writer), the golden value elsewhere.  CTAs
 * outside the run execute fault-free and bit-identically to golden in
 * the full grid (no byte they read was stored by the run before them,
 * or the closure would contain them), so golden bytes stand in for
 * them exactly.  Dirty-chunk over-approximation is safe: the extra
 * bytes are pristine in both images, and checkpoint-delta bleed only
 * reaches bytes other CTAs write, which the resolver never reads from
 * the run's image.
 */
std::vector<std::vector<std::uint8_t>>
Injector::reconstructSlicedOutputs(const HazardResolver &resolver)
{
    const sim::IntervalSet candidates =
        resolver.runBytes(scratch_.dirtyIntervals());

    auto test = golden_outputs_;
    for (std::size_t r = 0; r < outputs_.size(); ++r) {
        const OutputRegion &region = outputs_[r];
        sim::IntervalSet overlap =
            candidates.clipped(region.addr, region.addr + region.bytes);
        for (const sim::Interval &iv : overlap.ranges())
            scratch_.readBytes(iv.begin, iv.bytes(),
                               test[r].data() + (iv.begin - region.addr));
    }
    return test;
}

/** Masked/SDC decision over captured outputs, with anatomy on SDC. */
Outcome
Injector::classifyOutputs(
    const std::vector<std::vector<std::uint8_t>> &test,
    InjectionDetail *detail)
{
    if (outputsMatch(outputs_, golden_outputs_, test))
        return Outcome::Masked;
    if (detail) {
        detail->hasAnatomy = true;
        detail->anatomy = classifySdc(outputs_, golden_outputs_, test);
    }
    return Outcome::SDC;
}

std::optional<Outcome>
Injector::settleRun(const FaultSite &site, const sim::FaultPlan &plan,
                    const sim::RunResult &result, InjectionDetail *detail)
{
    if (plan.detected)
        stats_.detectedFaults++;
    if (detail)
        detail->staticIndex = plan.appliedStatic;
    if (result.status != sim::RunStatus::Completed)
        return Outcome::Other;

    if (!plan.applied) {
        // The planned corruption never fired.  Under the default model
        // that means the caller targeted a site outside the enumerated
        // space (worth a warning); richer models reach this state
        // legitimately -- e.g. a barrier-skip site in a thread with no
        // barrier left, or a stuck-at mask beyond the destination
        // width -- and the run is trivially fault-free.  A detection
        // means the fault did fire but the protection plan suppressed
        // it, which is the expected path of a protected campaign.
        if (plan.kind == sim::FaultKind::DestReg &&
            model_->kind() == "single-bit" && !plan.detected) {
            warn("fault plan not applied: thread ", site.thread, " dyn ",
                 site.dynIndex, " bit ", site.bit);
        }
        return Outcome::Masked;
    }
    return std::nullopt;
}

void
Injector::restoreCheckpoint(const CtaCheckpoint &checkpoint,
                            std::uint64_t cta)
{
    stats_.restoredBytes += scratch_.applyDelta(checkpoint.delta);
    stats_.checkpointRestores++;
    stats_.skippedDynInstrs += checkpoint.ctaDynInstrs;
    if (observer_) {
        observer_->onCheckpointRestored(
            {cta, checkpoint.ctaDynInstrs, observer_worker_});
    }
}

Outcome
Injector::inject(const FaultSite &site)
{
    return inject(site, nullptr);
}

Outcome
Injector::inject(const FaultSite &site, InjectionDetail *detail)
{
    stats_.injections++;
    if (detail)
        *detail = InjectionDetail{};

    // Validate the site under the active model: universally, a dynamic
    // index at or beyond the thread's golden iCnt can never fire and
    // signals a bug in the caller's site enumeration, not a masked
    // fault; models add their own launch requirements.
    std::string why;
    if (!model_->validate(site, model_ctx_, &why)) {
        stats_.invalidSites++;
        warn("invalid fault site under ", model_->identity(), ": ", why);
        return Outcome::Invalid;
    }

    stats_.restoredBytes += scratch_.restoreFrom(image_);
    sim::FaultPlan plan = model_->plan(site, model_ctx_);

    // A checkpoint is usable when the fault thread had executed at most
    // dynIndex instructions at the capture point: the pre-fault replay
    // is bit-identical to golden, so the fault still fires in-replay.
    // Models whose faults predate the site's dynamic index veto this.
    const std::uint64_t block_threads =
        executor_.config().block.count();
    const std::uint64_t cta = site.thread / block_threads;
    const CtaCheckpoint *checkpoint =
        (checkpointsActive() && model_->supportsCheckpoints())
            ? checkpoints_->find(cta, site.thread % block_threads,
                                 site.dynIndex)
            : nullptr;

    if (slicingActive() && model_->supportsSlicing()) {
        // The sliced run, then the closure of later CTAs that read a
        // byte it stored, each re-run from the same starting point.
        std::vector<std::uint64_t> ctas{cta};
        for (unsigned round = 0; round < kMaxClosureRounds; ++round) {
            if (round > 0) {
                stats_.restoredBytes += scratch_.restoreFrom(image_);
                plan = model_->plan(site, model_ctx_);
                stats_.closureRuns++;
                stats_.closureCtas += ctas.size();
            }
            HazardResolver resolver(*slicing_, image_, ctas);
            if (checkpoint) {
                // Deltas are CTA-local, so pristine image + delta is
                // the memory exactly as the CTA's golden execution had
                // left it at the capture point; chunk bleed only
                // reaches bytes other CTAs write, which the resolver
                // serves without reading them from scratch.
                restoreCheckpoint(*checkpoint, cta);
            }
            const sim::RunResult result = executor_.run(
                scratch_, nullptr, &plan, &resolver.slice(),
                checkpoint ? &checkpoint->state : nullptr,
                protection_.get());
            // Machine-state pages copied out of the snapshot count
            // toward the restore traffic, same as memory-image bytes.
            stats_.restoredBytes += result.restoredStateBytes;
            stats_.executedCtas += result.executedCtas;
            if (resolver.servedLoads())
                stats_.hazardLoadsInSlice++;
            if (result.status == sim::RunStatus::SliceHazard)
                break;

            std::vector<std::uint64_t> readers;
            if (result.status == sim::RunStatus::Completed)
                readers = resolver.laterReaders();
            if (readers.empty()) {
                stats_.slicedRuns++;
                if (auto settled = settleRun(site, plan, result, detail))
                    return *settled;
                return classifyOutputs(reconstructSlicedOutputs(resolver),
                                       detail);
            }
            ctas.insert(ctas.end(), readers.begin(), readers.end());
            std::sort(ctas.begin(), ctas.end());
        }

        // The resolver gave up, or the closure kept growing; replay
        // the site on the full grid for an exact classification.
        stats_.hazardFallbacks++;
        if (observer_)
            observer_->onSliceHazard({cta, observer_worker_});
        stats_.restoredBytes += scratch_.restoreFrom(image_);
        plan = model_->plan(site, model_ctx_);
    }

    if (checkpoint) {
        // Full-grid resume: apply the complete deltas of all preceding
        // CTAs (they execute fault-free, identically to golden), then
        // the faulty CTA's capture-point delta; the run resumes CTA
        // `cta` from the checkpoint and executes every later CTA live.
        for (std::uint64_t before = 0; before < cta; ++before) {
            stats_.restoredBytes +=
                scratch_.applyDelta(checkpoints_->finalDelta(before));
            stats_.skippedDynInstrs +=
                checkpoints_->finalDynInstrs(before);
        }
        restoreCheckpoint(*checkpoint, cta);
    }
    const sim::RunResult result =
        executor_.run(scratch_, nullptr, &plan, nullptr,
                      checkpoint ? &checkpoint->state : nullptr,
                      protection_.get());
    stats_.restoredBytes += result.restoredStateBytes;
    stats_.fullGridRuns++;
    stats_.executedCtas += result.executedCtas;
    if (auto settled = settleRun(site, plan, result, detail))
        return *settled;
    return classifyOutputs(captureOutputs(scratch_, outputs_), detail);
}

} // namespace fsp::faults
