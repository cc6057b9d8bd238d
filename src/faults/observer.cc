/**
 * @file
 * Stock campaign observers: fan-out list, metrics bridge, and live
 * progress reporting.
 */

#include "faults/observer.hh"

#include <algorithm>
#include <cstdio>
#include <string>

#include "faults/campaign_engine.hh"
#include "util/logging.hh"

namespace fsp::faults {

const char *
campaignPhaseName(CampaignPhase phase)
{
    switch (phase) {
      case CampaignPhase::Replay:
        return "replay";
      case CampaignPhase::Inject:
        return "inject";
      case CampaignPhase::Fold:
        return "fold";
    }
    return "?";
}

void
ObserverList::onCampaignBegin(const CampaignBegin &event)
{
    for (CampaignObserver *observer : observers_)
        observer->onCampaignBegin(event);
}

void
ObserverList::onSiteClassified(const SiteClassified &event)
{
    for (CampaignObserver *observer : observers_)
        observer->onSiteClassified(event);
}

void
ObserverList::onCheckpointRestored(const CheckpointRestored &event)
{
    for (CampaignObserver *observer : observers_)
        observer->onCheckpointRestored(event);
}

void
ObserverList::onSliceHazard(const SliceHazard &event)
{
    for (CampaignObserver *observer : observers_)
        observer->onSliceHazard(event);
}

void
ObserverList::onCacheHit(const CacheHit &event)
{
    for (CampaignObserver *observer : observers_)
        observer->onCacheHit(event);
}

void
ObserverList::onCacheMiss(const CacheMiss &event)
{
    for (CampaignObserver *observer : observers_)
        observer->onCacheMiss(event);
}

void
ObserverList::onChunkFolded(const ChunkFolded &event)
{
    for (CampaignObserver *observer : observers_)
        observer->onChunkFolded(event);
}

void
ObserverList::onJournalCommit(const JournalCommit &event)
{
    for (CampaignObserver *observer : observers_)
        observer->onJournalCommit(event);
}

void
ObserverList::onPhaseDone(const PhaseDone &event)
{
    for (CampaignObserver *observer : observers_)
        observer->onPhaseDone(event);
}

void
ObserverList::onCampaignEnd(const CampaignEnd &event)
{
    for (CampaignObserver *observer : observers_)
        observer->onCampaignEnd(event);
}

namespace {

/** Injection-latency bucket edges (seconds): 100us .. 10s. */
std::vector<double>
latencyEdges()
{
    return {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
            5e-2, 0.1,    0.25, 0.5,  1.0,    2.5,  5.0,  10.0};
}

const char *const kOutcomeLabels[4] = {
    "outcome=\"masked\"",
    "outcome=\"sdc\"",
    "outcome=\"other\"",
    "outcome=\"invalid\"",
};

} // namespace

MetricsObserver::MetricsObserver(metrics::Registry &registry)
    : registry_(registry)
{
    for (std::size_t o = 0; o < 4; ++o) {
        site_outcomes_[o] = registry_.counter(
            "fsp_campaign_sites_total",
            "classified fault sites by outcome", kOutcomeLabels[o]);
        latency_[o] = registry_.histogram(
            "fsp_injection_seconds",
            "per-site injection wall time by outcome", latencyEdges(),
            kOutcomeLabels[o]);
    }
    campaigns_ = registry_.counter("fsp_campaigns_total",
                                   "campaign engine runs started");
    scheduled_sites_ =
        registry_.counter("fsp_campaign_scheduled_sites_total",
                          "sites scheduled across campaigns");
    replayed_sites_ =
        registry_.counter("fsp_campaign_replayed_sites_total",
                          "sites satisfied from a journal, not injected");
    chunks_ = registry_.counter("fsp_campaign_chunks_total",
                                "campaign chunks folded");
    journal_commits_ =
        registry_.counter("fsp_campaign_journal_commits_total",
                          "journal write+fsync batches");
    journal_bytes_ =
        registry_.counter("fsp_campaign_journal_bytes_total",
                          "bytes made durable in the journal");
    checkpoint_restores_ =
        registry_.counter("fsp_campaign_checkpoint_restores_total",
                          "injection runs resumed from a checkpoint");
    skipped_instrs_ = registry_.counter(
        "fsp_campaign_skipped_dyn_instrs_total",
        "golden instructions not re-executed thanks to checkpoints");
    slice_hazards_ =
        registry_.counter("fsp_campaign_slice_hazards_total",
                          "sliced runs escalated to full-grid replay");
    hazard_loads_in_slice_ = registry_.counter(
        "fsp_campaign_hazard_loads_in_slice_total",
        "sliced runs that served a load of another CTA's bytes");
    closure_runs_ =
        registry_.counter("fsp_campaign_closure_runs_total",
                          "multi-CTA closure re-runs after a cross-CTA "
                          "store");
    closure_ctas_ = registry_.counter(
        "fsp_campaign_closure_ctas_total", "CTAs run by closure re-runs");
    cache_hits_ = registry_.counter(
        "fsp_cache_hits_total",
        "sites satisfied from the section cache, not injected");
    cache_misses_ =
        registry_.counter("fsp_cache_misses_total",
                          "sites that missed the section cache");
    cache_bytes_ =
        registry_.counter("fsp_cache_bytes_total",
                          "section cache bytes read plus written");
    for (std::size_t p = 0; p < 3; ++p) {
        std::string label =
            std::string("phase=\"") +
            campaignPhaseName(static_cast<CampaignPhase>(p)) + "\"";
        phase_seconds_[p] = registry_.gauge(
            "fsp_campaign_phase_seconds",
            "cumulative wall time per campaign phase", label);
    }
    workers_ = registry_.gauge("fsp_campaign_workers",
                               "worker threads of the latest campaign");
    sites_per_second_ =
        registry_.gauge("fsp_campaign_sites_per_second",
                        "injection throughput of the latest campaign");
}

metrics::Shard &
MetricsObserver::shard(unsigned worker)
{
    // Sized at onCampaignBegin; an engine never reports a worker id
    // at or beyond the count it announced.
    return shards_[worker];
}

void
MetricsObserver::onCampaignBegin(const CampaignBegin &event)
{
    // Fold any residue an aborted campaign left in the shards, then
    // make sure one private shard exists per announced worker.
    for (metrics::Shard &shard : shards_)
        registry_.fold(shard);
    while (shards_.size() < event.workers)
        shards_.push_back(registry_.makeShard());
    registry_.add(campaigns_);
    registry_.add(scheduled_sites_, event.sitesTotal);
    registry_.set(workers_, static_cast<double>(event.workers));
}

void
MetricsObserver::onSiteClassified(const SiteClassified &event)
{
    metrics::Shard &s = shard(event.worker);
    auto outcome = static_cast<std::size_t>(event.outcome);
    s.add(site_outcomes_[outcome]);
    s.observe(latency_[outcome], event.seconds);
}

void
MetricsObserver::onCheckpointRestored(const CheckpointRestored &event)
{
    metrics::Shard &s = shard(event.worker);
    s.add(checkpoint_restores_);
    s.add(skipped_instrs_, event.skippedDynInstrs);
}

void
MetricsObserver::onSliceHazard(const SliceHazard &event)
{
    shard(event.worker).add(slice_hazards_);
}

void
MetricsObserver::onCacheHit(const CacheHit &)
{
    // Campaign-scope (serial): the registry is touched directly.
    registry_.add(cache_hits_);
}

void
MetricsObserver::onCacheMiss(const CacheMiss &)
{
    registry_.add(cache_misses_);
}

void
MetricsObserver::onChunkFolded(const ChunkFolded &event)
{
    // Serialized under the engine's progress lock: fold the completing
    // worker's shard so the registry trails the campaign by at most
    // the in-flight chunks.
    registry_.add(chunks_);
    registry_.fold(shard(event.worker));
}

void
MetricsObserver::onJournalCommit(const JournalCommit &event)
{
    registry_.add(journal_commits_);
    registry_.add(journal_bytes_, event.bytes);
}

void
MetricsObserver::onPhaseDone(const PhaseDone &event)
{
    registry_.addGauge(phase_seconds_[static_cast<std::size_t>(
                           event.phase)],
                       event.seconds);
}

void
MetricsObserver::onCampaignEnd(const CampaignEnd &event)
{
    for (metrics::Shard &shard : shards_)
        registry_.fold(shard);
    registry_.add(replayed_sites_, event.stats->replayedSites);
    registry_.add(hazard_loads_in_slice_,
                  event.stats->injection.hazardLoadsInSlice);
    registry_.add(closure_runs_, event.stats->injection.closureRuns);
    registry_.add(closure_ctas_, event.stats->injection.closureCtas);
    registry_.add(cache_bytes_, event.stats->cacheBytesRead +
                                    event.stats->cacheBytesWritten);
    registry_.set(sites_per_second_, event.stats->sitesPerSecond);
}

void
LiveProgress::onCampaignBegin(const CampaignBegin &event)
{
    start_ = Clock::now();
    last_emit_ = start_;
    label_ = event.label;
    masked_.store(0, std::memory_order_relaxed);
    sdc_.store(0, std::memory_order_relaxed);
    other_.store(0, std::memory_order_relaxed);
}

void
LiveProgress::onSiteClassified(const SiteClassified &event)
{
    switch (event.outcome) {
      case Outcome::Masked:
        masked_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Outcome::SDC:
        sdc_.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        other_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
}

void
LiveProgress::onChunkFolded(const ChunkFolded &event)
{
    Clock::time_point now = Clock::now();
    double since_emit =
        std::chrono::duration<double>(now - last_emit_).count();
    if (since_emit < interval_ && event.sitesDone < event.sitesTotal)
        return;
    last_emit_ = now;

    std::uint64_t masked = masked_.load(std::memory_order_relaxed);
    std::uint64_t sdc = sdc_.load(std::memory_order_relaxed);
    std::uint64_t other = other_.load(std::memory_order_relaxed);
    std::uint64_t done = event.sitesDone;
    double elapsed =
        std::chrono::duration<double>(now - start_).count();
    double rate = elapsed > 0.0 ? static_cast<double>(done) / elapsed
                                : 0.0;
    double eta = rate > 0.0 ? static_cast<double>(event.sitesTotal -
                                                  done) /
                                  rate
                            : 0.0;
    double classified =
        static_cast<double>(std::max<std::uint64_t>(
            masked + sdc + other, 1));

    char buf[192];
    std::snprintf(
        buf, sizeof(buf),
        "%llu/%llu sites (%.1f%%) | masked %.1f%% sdc %.1f%% "
        "other %.1f%% | %.0f sites/s | ETA %.0f s",
        static_cast<unsigned long long>(done),
        static_cast<unsigned long long>(event.sitesTotal),
        event.sitesTotal > 0
            ? 100.0 * static_cast<double>(done) /
                  static_cast<double>(event.sitesTotal)
            : 100.0,
        100.0 * static_cast<double>(masked) / classified,
        100.0 * static_cast<double>(sdc) / classified,
        100.0 * static_cast<double>(other) / classified, rate, eta);
    inform(label_, buf);
}

} // namespace fsp::faults
