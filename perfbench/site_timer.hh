/**
 * @file
 * SiteTimer: the traced run's campaign observer.  It keeps each
 * classified site's wall time, splits off the sites that followed a
 * slice hazard on the same worker (the full-grid fallback tail), and
 * counts journal commits.  Attaching it turns on the engine's per-site
 * timing, which is why only the traced run attaches it.
 */

#ifndef FSP_PERFBENCH_SITE_TIMER_HH
#define FSP_PERFBENCH_SITE_TIMER_HH

#include <cstdint>
#include <vector>

#include "faults/observer.hh"

namespace fsp::perfbench {

class SiteTimer final : public faults::CampaignObserver
{
  public:
    /** Campaign-scope: size the per-worker logs before workers run. */
    void
    onCampaignBegin(const CampaignBegin &event) override
    {
        if (workers_.size() < event.workers)
            workers_.resize(event.workers);
        for (WorkerLog &log : workers_)
            log.hazardPending = false;
    }

    /** Worker-thread: fires inside inject(), before that site's
     *  SiteClassified on the same worker. */
    void
    onSliceHazard(const SliceHazard &event) override
    {
        workers_[event.worker].hazardPending = true;
    }

    void
    onSiteClassified(const SiteClassified &event) override
    {
        WorkerLog &log = workers_[event.worker];
        log.seconds.push_back(event.seconds);
        if (log.hazardPending) {
            log.hazardSeconds.push_back(event.seconds);
            log.hazardPending = false;
        }
    }

    /** Fold-point (serialized by the engine). */
    void
    onJournalCommit(const JournalCommit &event) override
    {
        journal_commits_++;
        journal_bytes_ += event.bytes;
    }

    /** Every classified site's wall time, all workers. */
    std::vector<double>
    siteSeconds() const
    {
        std::vector<double> all;
        for (const WorkerLog &log : workers_)
            all.insert(all.end(), log.seconds.begin(), log.seconds.end());
        return all;
    }

    /** Wall times of the sites that followed a slice hazard. */
    std::vector<double>
    hazardSiteSeconds() const
    {
        std::vector<double> all;
        for (const WorkerLog &log : workers_)
            all.insert(all.end(), log.hazardSeconds.begin(),
                       log.hazardSeconds.end());
        return all;
    }

    std::uint64_t journalCommits() const { return journal_commits_; }
    std::uint64_t journalBytes() const { return journal_bytes_; }

  private:
    /** Written only by its own worker; padded against false sharing. */
    struct alignas(64) WorkerLog
    {
        std::vector<double> seconds;
        std::vector<double> hazardSeconds;
        bool hazardPending = false;
    };

    std::vector<WorkerLog> workers_;
    std::uint64_t journal_commits_ = 0;
    std::uint64_t journal_bytes_ = 0;
};

} // namespace fsp::perfbench

#endif // FSP_PERFBENCH_SITE_TIMER_HH
