/**
 * @file
 * The unified campaign engine: one facade over every way this library
 * runs an injection campaign -- explicit site lists, weighted (pruned)
 * site lists, and the random-sampling statistical baseline -- serial
 * or parallel, with optional crash-safe journaling and resume.
 *
 * Every injection run of a campaign is independent (the injector
 * restores the pristine image before each run), so the engine shards
 * its site list into fixed chunks, executes the chunks on a thread
 * pool with one private Injector per worker, and records each site's
 * Outcome into its slot of a pre-sized array.  The final tally is then
 * folded *serially in site order*, which makes the result -- run
 * counts and the weighted double accumulation alike -- bit-identical
 * regardless of worker count, chunk size, scheduling, or how many
 * outcomes were replayed from a journal or the section cache instead
 * of injected (the reference serial fold lives in the determinism
 * suite, tests/reference_campaign.hh).
 *
 * Durable sessions: when CampaignOptions::journalPath is set, every
 * completed chunk's outcomes are appended to a faults::CampaignJournal
 * and fsync'd from the chunk fold point.  A campaign killed mid-run
 * and restarted with CampaignOptions::resume replays the journal,
 * injects only the remaining sites, and produces the same profile
 * bit-for-bit (see tests/test_campaign_journal).
 *
 * Incremental campaigns: when CampaignOptions::sectionCache and
 * sectionIndex are set, sites whose trace section (content + upstream
 * state + downstream propagation hashes, see section_cache.hh) is
 * unchanged since an earlier campaign replay their recorded outcome
 * from the cache instead of injecting, and freshly injected outcomes
 * are stored back.  The warm profile is bit-identical to a cold run.
 *
 * Observability: CampaignOptions::observer receives typed events
 * (site classified, chunk folded, checkpoint restored, slice hazard,
 * cache hit/miss, journal commit, phase boundaries -- see observer.hh)
 * without ever influencing results; per-site wall times are only
 * measured while an observer is attached, so the unobserved hot path
 * stays untouched.
 */

#ifndef FSP_FAULTS_CAMPAIGN_ENGINE_HH
#define FSP_FAULTS_CAMPAIGN_ENGINE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "faults/campaign_journal.hh"
#include "faults/fault_space.hh"
#include "faults/injector.hh"
#include "faults/observer.hh"
#include "faults/outcome.hh"
#include "faults/sdc_anatomy.hh"
#include "faults/section_cache.hh"
#include "util/prng.hh"
#include "util/thread_pool.hh"

namespace fsp {
class JsonWriter;
} // namespace fsp

namespace fsp::faults {

/** Result of a campaign. */
struct CampaignResult
{
    OutcomeDist dist;        ///< (weighted) outcome tally
    std::uint64_t runs = 0;  ///< injection runs performed
    InjectionStats injection; ///< how the runs were executed

    /**
     * SDC anatomy + per-static-instruction failure-class ranking.
     * Folded serially in site order, so it is bit-identical at any
     * worker count and whether outcomes were injected, replayed from
     * a journal, or satisfied from the section cache.
     */
    SdcAnatomyProfile anatomy;

    /**
     * Per-site outcomes in original site-list order, filled only when
     * CampaignOptions::keepSiteOutcomes is set; covers every site --
     * injected, journal-replayed, or cache-replayed alike.  The
     * protection planner consumes this to attribute SDC weight to
     * threads.
     */
    std::vector<Outcome> siteOutcomes;
};

/**
 * Thrown by the engine's testing hook (abortAfterSites) after the
 * current chunk's journal records are durably committed -- the state a
 * SIGKILL between chunk commits leaves behind.
 */
class CampaignAborted : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * A worker body threw during parallel classification: the message
 * carries the first exception's text plus how many chunks the pool
 * abandoned unclaimed, so a failed campaign reports *why* it stopped
 * instead of silently dropping the cause.  The journal retains every
 * chunk committed before the failure, so a resume picks up where the
 * failure cut the run short.
 */
class CampaignError : public std::runtime_error
{
  public:
    CampaignError(const std::string &message,
                  std::size_t abandonedChunks)
        : std::runtime_error(message), abandoned_chunks_(abandonedChunks)
    {
    }

    /** Chunks never claimed because of the failure. */
    std::size_t abandonedChunks() const { return abandoned_chunks_; }

  private:
    std::size_t abandoned_chunks_ = 0;
};

/** Campaign engine knobs. */
struct CampaignOptions
{
    /** Worker threads; 0 selects ThreadPool::defaultWorkerCount(). */
    unsigned workers = 0;

    /** Sites per chunk; 0 derives one from the list and worker count. */
    std::size_t chunkSize = 0;

    /**
     * Event sink for this engine's campaigns (not owned; must outlive
     * every run).  See observer.hh for the event set and the per-event
     * threading contract.  Observers never influence results: profiles
     * are bit-identical with or without one attached.
     */
    CampaignObserver *observer = nullptr;

    /**
     * @{ Incremental campaigns: content-addressed section result
     * cache.  Both must be set (and outlive every run) for the reuse
     * path to activate; the index maps each fault site to its trace
     * section's identity hashes (built by the analysis layer, which
     * owns the trace/pruning machinery) and the cache persists per-site
     * outcomes keyed by section content, fault site, fault model, and
     * seed.  Like the observer, these never influence the folded
     * profile -- a warm run is bit-identical to a cold one -- so they
     * are ignored by sameEngineConfig() and re-targetable on a cached
     * engine via setSectionCache().
     */
    SectionCache *sectionCache = nullptr;
    const SectionIndex *sectionIndex = nullptr;
    /** @} */

    /**
     * Fault-model strategy applied to every worker injector; null
     * selects the paper's default (single-bit destination flip).
     * Shared const -- models are immutable and thread-safe.  Model
     * randomness (memory addresses, activation schedules) is seeded
     * from journalKey.seed, so it is part of the campaign identity.
     */
    std::shared_ptr<const FaultModel> faultModel;

    /**
     * Protection plan applied to every worker injector; null runs the
     * campaign unprotected.  Faults firing inside the plan's coverage
     * are suppressed (classified Masked, counted as detections), so --
     * unlike the observer or the section cache -- this changes results:
     * it participates in sameEngineConfig(), and the plan's identity
     * hash is folded into the journal tag so a protected journal never
     * resumes an unprotected campaign or vice versa.
     */
    std::shared_ptr<const sim::ProtectionPlan> protection;

    /**
     * Fill CampaignResult::siteOutcomes with each site's outcome in
     * original list order.  Result-neutral (the fold is unchanged):
     * ignored by sameEngineConfig() and re-targetable on a cached
     * engine via setKeepSiteOutcomes().
     */
    bool keepSiteOutcomes = false;

    /** @{ Durable sessions (crash-safe result journal). */
    /** On-disk journal path; empty disables journaling. */
    std::string journalPath;

    /**
     * Resume from an existing journal (validating its header hash and
     * replaying completed sites) instead of truncating it.  A missing
     * file starts a fresh journal either way.
     */
    bool resume = false;

    /** Campaign identity folded into the journal header hash. */
    JournalKey journalKey;

    /**
     * Testing hook simulating a kill: once at least this many sites of
     * the run have been classified, throw CampaignAborted from the
     * chunk fold point *after* the journal commit (so the journal is
     * exactly as durable as a real SIGKILL between commits would leave
     * it); 0 disables.
     */
    std::uint64_t abortAfterSites = 0;
    /** @} */

    /**
     * Does @p other configure an identical engine?  Ignores the
     * result-neutral fields (observer, section cache/index); used by
     * caches (the analysis facade) to decide whether an existing
     * engine can be reused.
     */
    bool sameEngineConfig(const CampaignOptions &other) const
    {
        return workers == other.workers && chunkSize == other.chunkSize &&
               journalPath == other.journalPath &&
               resume == other.resume &&
               journalKey.tag == other.journalKey.tag &&
               journalKey.seed == other.journalKey.seed &&
               abortAfterSites == other.abortAfterSites &&
               faultModelIdentity() == other.faultModelIdentity() &&
               protectionIdentity() == other.protectionIdentity();
    }

    /** Identity of the effective model (default when faultModel null). */
    std::string
    faultModelIdentity() const
    {
        return faultModel ? faultModel->identity() : "single-bit()";
    }

    /** Identity of the protection plan; empty when unprotected. */
    std::string
    protectionIdentity() const
    {
        return protection ? protection->identity() : std::string();
    }
};

/**
 * Per-phase wall time and throughput report for the engine's most
 * recent campaign, sealed into the journal footer when a journal is
 * attached and surfaced by the tools' --json output.
 */
struct CampaignStats
{
    unsigned workers = 0;
    std::size_t chunkSize = 0;
    std::uint64_t chunks = 0;
    std::uint64_t sites = 0;         ///< campaign size (replayed + injected)
    std::uint64_t injectedSites = 0; ///< classified by this run
    std::uint64_t replayedSites = 0; ///< satisfied from the journal
    std::vector<std::uint64_t> perWorkerRuns; ///< runs executed per worker

    /** @{ Section-cache accounting (zero when no cache is attached). */
    std::uint64_t cachedSites = 0;  ///< satisfied from the section cache
    std::uint64_t cacheHits = 0;    ///< cache lookups that hit, this run
    std::uint64_t cacheMisses = 0;  ///< cache lookups that missed
    std::uint64_t cacheBytesRead = 0;
    std::uint64_t cacheBytesWritten = 0;
    /** @} */
    double replaySeconds = 0.0;  ///< journal open + outcome replay
    double injectSeconds = 0.0;  ///< parallel classification
    double foldSeconds = 0.0;    ///< serial outcome fold + footer
    double elapsedSeconds = 0.0; ///< replay + inject + fold
    double sitesPerSecond = 0.0; ///< injectedSites / injectSeconds
    InjectionStats injection; ///< summed over workers, this campaign only
    std::string journalPath;  ///< empty when no journal was attached
    bool resumed = false;     ///< run opened an existing journal

    /**
     * @{ Failure report of an aborted classification: the first worker
     * exception's message and the chunk count the pool abandoned
     * unclaimed because of it.  Empty/zero on success.  Filled before
     * CampaignError propagates, so lastStats() explains a failed run.
     */
    std::string workerError;
    std::uint64_t abandonedChunks = 0;
    /** @} */

    /** One-line human-readable summary for logs. */
    std::string summary() const;
};

/**
 * Emit a CampaignStats report as fields of the currently open JSON
 * object: phase wall times, throughput, journal state, and the nested
 * injection counters (the machine-readable counterpart of summary(),
 * shared by the fsp and resilience_report --json outputs).
 */
void writeCampaignStats(JsonWriter &json, const CampaignStats &stats);

/**
 * A reusable campaign engine for one kernel launch.
 *
 * Construction performs the golden run once (via a prototype Injector)
 * and clones it per worker; the engine can then run any number of
 * campaigns.  Results are guaranteed identical to the reference serial
 * fold (tests/reference_campaign.hh, exercised by the determinism
 * suite in tests/test_parallel_campaign), including across journal
 * kill/resume cycles and warm section-cache reruns.
 */
class CampaignEngine
{
  public:
    /** Mirror of Injector's constructor; performs the golden run. */
    CampaignEngine(const sim::Program &program,
                   const sim::LaunchConfig &config,
                   const sim::GlobalMemory &image,
                   std::vector<OutputRegion> outputs,
                   CampaignOptions options = {});

    /**
     * Build from an existing injector whose golden state is simply
     * cloned -- no additional golden run.  Workers inherit the
     * prototype's execution strategy (InjectorOptions).
     */
    CampaignEngine(const Injector &prototype,
                   CampaignOptions options = {});

    /** Inject every site in the list, tallying unweighted outcomes. */
    CampaignResult run(const std::vector<FaultSite> &sites);

    /** Inject every weighted site, tallying weighted outcomes. */
    CampaignResult run(const std::vector<WeightedSite> &sites);

    /**
     * The statistical baseline: @p runs sites drawn uniformly at
     * random from the full fault space (with replacement) by the
     * caller's @p prng exactly as in the serial driver (the generator
     * advances identically), then injected and tallied.
     */
    CampaignResult run(const FaultSpace &space, std::size_t runs,
                       Prng &prng);

    /**
     * @{ Re-target the result-neutral option fields without rebuilding
     * the engine (they are ignored by sameEngineConfig, so a cached
     * engine may carry stale ones from an earlier caller).
     */
    void setObserver(CampaignObserver *observer)
    {
        options_.observer = observer;
    }

    void
    setSectionCache(SectionCache *cache, const SectionIndex *index)
    {
        options_.sectionCache = cache;
        options_.sectionIndex = index;
    }

    void setKeepSiteOutcomes(bool keep)
    {
        options_.keepSiteOutcomes = keep;
    }
    /** @} */

    /** The protection plan every worker injects under; may be null. */
    std::shared_ptr<const sim::ProtectionPlan>
    protectionPlan() const
    {
        return injectors_[0]->protectionPlan();
    }

    unsigned workerCount() const { return pool_.workerCount(); }

    /** The fault model every worker injects under. */
    const FaultModel &
    faultModel() const
    {
        return injectors_[0]->faultModel();
    }

    /** The seed of the workers' model randomness. */
    std::uint64_t faultModelSeed() const
    {
        return injectors_[0]->faultModelSeed();
    }

    /** Do the workers' injectors use the sliced path? */
    bool slicingActive() const { return injectors_[0]->slicingActive(); }

    /** Do the workers' injectors resume from checkpoints? */
    bool
    checkpointsActive() const
    {
        return injectors_[0]->checkpointsActive();
    }

    /** The workers' shared CTA-independence decision. */
    const SlicingPlan &
    slicingPlan() const
    {
        return injectors_[0]->slicingPlan();
    }

    /** Injection runs performed so far, summed over all workers. */
    std::uint64_t runsPerformed() const;

    /** Throughput/worker report for the most recent campaign. */
    const CampaignStats &lastStats() const { return stats_; }

  private:
    /** Chunk-local processing key: (cta, thread, dynIndex). */
    using SiteKey = std::array<std::uint64_t, 3>;

    /**
     * One complete campaign: journal open/replay, parallel
     * classification of the pending sites, serial in-order fold, and
     * footer sealing.  @p siteAt / @p weightAt address the campaign's
     * site list by original index; @p weighted selects the fold.
     */
    CampaignResult runCampaign(
        std::size_t count,
        const std::function<const FaultSite &(std::size_t)> &siteAt,
        const std::function<double(std::size_t)> &weightAt, bool weighted,
        const char *label);

    /**
     * Shard @p pending (original site indices) into chunks, classify
     * every pending site on the pool, and write outcomes and details
     * into @p outcomes / @p details indexed by *original* site
     * position -- so the fold never depends on scheduling.  Each chunk
     * processes its sites in ascending (cta, thread, dynIndex) order
     * (successive sites then share a CTA checkpoint), and commits its
     * records to @p journal (when non-null) from the fold point under
     * the progress lock.
     */
    void classifyPending(
        const std::vector<std::size_t> &pending,
        const std::function<const FaultSite &(std::size_t)> &siteAt,
        std::vector<Outcome> &outcomes,
        std::vector<InjectionDetail> &details, CampaignJournal *journal,
        CampaignObserver *observer);

    CampaignOptions options_;
    std::vector<std::unique_ptr<Injector>> injectors_; ///< one per worker
    ThreadPool pool_;
    CampaignStats stats_;
};

} // namespace fsp::faults

#endif // FSP_FAULTS_CAMPAIGN_ENGINE_HH
