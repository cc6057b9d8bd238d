/**
 * @file
 * Campaign observability: the CampaignObserver event interface and the
 * stock observers built on it.
 *
 * The engine emits typed events through one interface and everything
 * -- the metrics bridge, live progress reporting -- is an observer
 * composed into an ObserverList.
 *
 * Threading contract (one rule per event, stated on each struct):
 *
 *  - Worker-thread events (SiteClassified, CheckpointRestored,
 *    SliceHazard) fire concurrently from campaign workers with NO
 *    synchronization; they carry the worker id so an observer can keep
 *    worker-private state (see MetricsObserver's shards).
 *  - Fold-point events (ChunkFolded, JournalCommit) fire from worker
 *    threads but under the engine's progress lock -- serialized, in
 *    chunk completion order.
 *  - Campaign-scope events (CampaignBegin, CacheHit, CacheMiss,
 *    PhaseDone, CampaignEnd) fire on the thread that called
 *    CampaignEngine::run(), outside any parallel section.
 *
 * Observers must never mutate campaign state; the engine's results are
 * bit-identical with or without observers attached (enforced by
 * tests/test_metrics.cc).
 */

#ifndef FSP_FAULTS_OBSERVER_HH
#define FSP_FAULTS_OBSERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "faults/fault_site.hh"
#include "faults/outcome.hh"
#include "util/metrics.hh"

namespace fsp::faults {

struct CampaignStats;

/** The engine's campaign phases, in execution order. */
enum class CampaignPhase : std::uint8_t
{
    Replay, ///< journal open + outcome replay
    Inject, ///< parallel classification
    Fold,   ///< serial outcome fold + footer
};

/** Lower-case phase name ("replay"/"inject"/"fold"). */
const char *campaignPhaseName(CampaignPhase phase);

/**
 * Event interface for one campaign engine.  Default implementations
 * ignore every event, so observers override only what they consume.
 * The observer must outlive every engine run it is attached to.
 */
class CampaignObserver
{
  public:
    virtual ~CampaignObserver() = default;

    /** Campaign-scope: a run() is starting (before journal replay). */
    struct CampaignBegin
    {
        const char *label;        ///< engine's campaign label
        std::uint64_t sitesTotal; ///< full campaign size
        unsigned workers;
        bool journaled; ///< a journal is attached to this run
    };
    virtual void onCampaignBegin(const CampaignBegin &) {}

    /** Worker-thread: one site was injected and classified. */
    struct SiteClassified
    {
        const FaultSite *site;
        Outcome outcome;
        double seconds; ///< wall time of this injection run
        unsigned worker;
    };
    virtual void onSiteClassified(const SiteClassified &) {}

    /** Worker-thread: an injection resumed from a golden checkpoint. */
    struct CheckpointRestored
    {
        std::uint64_t cta;
        std::uint64_t skippedDynInstrs; ///< golden instrs not re-executed
        unsigned worker;
    };
    virtual void onCheckpointRestored(const CheckpointRestored &) {}

    /**
     * Worker-thread: a site the sliced engine could not classify was
     * replayed on the full grid.
     */
    struct SliceHazard
    {
        std::uint64_t cta;
        unsigned worker;
    };
    virtual void onSliceHazard(const SliceHazard &) {}

    /**
     * Campaign-scope: a pending site's outcome was replayed from the
     * section cache (fires during the replay phase, serially).
     */
    struct CacheHit
    {
        const FaultSite *site;
        Outcome outcome;
        std::uint64_t sectionHash; ///< cache bucket that satisfied it
    };
    virtual void onCacheHit(const CacheHit &) {}

    /**
     * Campaign-scope: a pending site missed the section cache (either
     * no entry, or the site is outside the section index) and will be
     * injected.
     */
    struct CacheMiss
    {
        const FaultSite *site;
        std::uint64_t sectionHash; ///< 0 when the site was un-indexed
    };
    virtual void onCacheMiss(const CacheMiss &) {}

    /** Fold-point: a chunk's outcomes were folded into the campaign. */
    struct ChunkFolded
    {
        std::uint64_t chunk;        ///< chunk index within this run
        std::uint64_t sitesInChunk;
        std::uint64_t sitesDone;    ///< classified so far, this run
        std::uint64_t sitesTotal;   ///< pending sites of this run
        unsigned worker;
    };
    virtual void onChunkFolded(const ChunkFolded &) {}

    /** Fold-point: journal records were written and fsync'd. */
    struct JournalCommit
    {
        std::uint64_t records; ///< records made durable by this commit
        std::uint64_t bytes;   ///< bytes written by this commit
        bool footer;           ///< this commit sealed the campaign
    };
    virtual void onJournalCommit(const JournalCommit &) {}

    /** Campaign-scope: a phase finished. */
    struct PhaseDone
    {
        CampaignPhase phase;
        double seconds;
    };
    virtual void onPhaseDone(const PhaseDone &) {}

    /** Campaign-scope: the run completed (stats are final). */
    struct CampaignEnd
    {
        const CampaignStats *stats;
    };
    virtual void onCampaignEnd(const CampaignEnd &) {}
};

/**
 * Fan-out: forwards every event to each added observer in order.
 * Composition tool for the engine and the tools (metrics + live
 * progress).
 */
class ObserverList final : public CampaignObserver
{
  public:
    void
    add(CampaignObserver *observer)
    {
        if (observer)
            observers_.push_back(observer);
    }

    bool empty() const { return observers_.empty(); }

    void onCampaignBegin(const CampaignBegin &event) override;
    void onSiteClassified(const SiteClassified &event) override;
    void onCheckpointRestored(const CheckpointRestored &event) override;
    void onSliceHazard(const SliceHazard &event) override;
    void onCacheHit(const CacheHit &event) override;
    void onCacheMiss(const CacheMiss &event) override;
    void onChunkFolded(const ChunkFolded &event) override;
    void onJournalCommit(const JournalCommit &event) override;
    void onPhaseDone(const PhaseDone &event) override;
    void onCampaignEnd(const CampaignEnd &event) override;

  private:
    std::vector<CampaignObserver *> observers_;
};

/**
 * Bridges campaign events into a metrics::Registry: outcome counters,
 * per-outcome injection-latency histograms, phase timings, journal and
 * checkpoint/hazard counters.  Hot worker-thread events land in
 * worker-private metrics shards folded at chunk boundaries (and at
 * campaign end), so the folded totals are deterministic and the hot
 * path never takes a lock.
 */
class MetricsObserver final : public CampaignObserver
{
  public:
    explicit MetricsObserver(metrics::Registry &registry);

    void onCampaignBegin(const CampaignBegin &event) override;
    void onSiteClassified(const SiteClassified &event) override;
    void onCheckpointRestored(const CheckpointRestored &event) override;
    void onSliceHazard(const SliceHazard &event) override;
    void onCacheHit(const CacheHit &event) override;
    void onCacheMiss(const CacheMiss &event) override;
    void onChunkFolded(const ChunkFolded &event) override;
    void onJournalCommit(const JournalCommit &event) override;
    void onPhaseDone(const PhaseDone &event) override;
    void onCampaignEnd(const CampaignEnd &event) override;

  private:
    metrics::Shard &shard(unsigned worker);

    metrics::Registry &registry_;
    std::vector<metrics::Shard> shards_; ///< one per worker, lazily sized

    /** Per-outcome ids, indexed by static_cast<size_t>(Outcome). */
    metrics::CounterId site_outcomes_[4];
    metrics::HistogramId latency_[4];

    metrics::CounterId campaigns_;
    metrics::CounterId scheduled_sites_;
    metrics::CounterId replayed_sites_;
    metrics::CounterId chunks_;
    metrics::CounterId journal_commits_;
    metrics::CounterId journal_bytes_;
    metrics::CounterId checkpoint_restores_;
    metrics::CounterId skipped_instrs_;
    metrics::CounterId slice_hazards_;
    metrics::CounterId hazard_loads_in_slice_;
    metrics::CounterId closure_runs_;
    metrics::CounterId closure_ctas_;
    metrics::CounterId cache_hits_;
    metrics::CounterId cache_misses_;
    metrics::CounterId cache_bytes_;
    metrics::GaugeId phase_seconds_[3]; ///< indexed by CampaignPhase
    metrics::GaugeId workers_;
    metrics::GaugeId sites_per_second_;
};

/**
 * Periodic human-readable progress: at most one inform() line per
 * interval from the chunk fold point, showing completion, the running
 * outcome mix, throughput, and an ETA.  An interval of 0 reports at
 * every chunk (useful in tests); the observer is silent until the
 * first chunk of a campaign folds.
 */
class LiveProgress final : public CampaignObserver
{
  public:
    explicit LiveProgress(double intervalSeconds)
        : interval_(intervalSeconds)
    {
    }

    void onCampaignBegin(const CampaignBegin &event) override;
    void onSiteClassified(const SiteClassified &event) override;
    void onChunkFolded(const ChunkFolded &event) override;

  private:
    using Clock = std::chrono::steady_clock;

    double interval_;
    Clock::time_point start_{};
    Clock::time_point last_emit_{};
    const char *label_ = "";
    /** Worker-thread tallies; relaxed atomics, read at fold points. */
    std::atomic<std::uint64_t> masked_{0};
    std::atomic<std::uint64_t> sdc_{0};
    std::atomic<std::uint64_t> other_{0};
};

} // namespace fsp::faults

#endif // FSP_FAULTS_OBSERVER_HH
