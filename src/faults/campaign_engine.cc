/**
 * @file
 * Unified campaign engine implementation.
 */

#include "faults/campaign_engine.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>

#include "util/json.hh"
#include "util/logging.hh"

namespace fsp::faults {

std::string
CampaignStats::summary() const
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%llu sites in %.3f s (%.0f sites/s, %u workers, "
                  "chunk %zu)",
                  static_cast<unsigned long long>(sites),
                  elapsedSeconds, sitesPerSecond, workers, chunkSize);
    std::string text = buf;
    if (replayedSites > 0) {
        std::snprintf(buf, sizeof(buf),
                      ", %llu replayed from journal",
                      static_cast<unsigned long long>(replayedSites));
        text += buf;
    }
    if (cacheHits > 0 || cacheMisses > 0) {
        std::snprintf(buf, sizeof(buf),
                      ", cache %llu/%llu hits",
                      static_cast<unsigned long long>(cacheHits),
                      static_cast<unsigned long long>(cacheHits +
                                                      cacheMisses));
        text += buf;
    }
    if (injection.slicedRuns > 0) {
        std::snprintf(buf, sizeof(buf),
                      ", sliced %llu/%llu (%llu cross-CTA loads served, "
                      "%llu closures over %llu CTAs, %llu hazard "
                      "fallbacks)",
                      static_cast<unsigned long long>(injection.slicedRuns),
                      static_cast<unsigned long long>(injection.injections),
                      static_cast<unsigned long long>(
                          injection.hazardLoadsInSlice),
                      static_cast<unsigned long long>(injection.closureRuns),
                      static_cast<unsigned long long>(injection.closureCtas),
                      static_cast<unsigned long long>(
                          injection.hazardFallbacks));
        text += buf;
    }
    if (injection.checkpointRestores > 0) {
        std::snprintf(
            buf, sizeof(buf),
            ", ckpt-restores %llu (skipped %llu instrs)",
            static_cast<unsigned long long>(injection.checkpointRestores),
            static_cast<unsigned long long>(injection.skippedDynInstrs));
        text += buf;
    }
    return text;
}

void
writeCampaignStats(JsonWriter &json, const CampaignStats &stats)
{
    json.field("workers", static_cast<std::uint64_t>(stats.workers));
    json.field("chunks", stats.chunks);
    json.field("sites", stats.sites);
    json.field("injectedSites", stats.injectedSites);
    json.field("replayedSites", stats.replayedSites);
    json.beginObject("phases");
    json.field("replaySeconds", stats.replaySeconds);
    json.field("injectSeconds", stats.injectSeconds);
    json.field("foldSeconds", stats.foldSeconds);
    json.field("elapsedSeconds", stats.elapsedSeconds);
    json.endObject();
    json.field("sitesPerSecond", stats.sitesPerSecond);
    if (!stats.journalPath.empty()) {
        json.beginObject("journal");
        json.field("path", stats.journalPath);
        json.field("resumed", stats.resumed);
        json.field("replayedSites", stats.replayedSites);
        json.endObject();
    }
    if (stats.cacheHits > 0 || stats.cacheMisses > 0 ||
        stats.cachedSites > 0) {
        json.beginObject("sectionCache");
        json.field("cachedSites", stats.cachedSites);
        json.field("hits", stats.cacheHits);
        json.field("misses", stats.cacheMisses);
        json.field("bytesRead", stats.cacheBytesRead);
        json.field("bytesWritten", stats.cacheBytesWritten);
        json.endObject();
    }
    if (!stats.workerError.empty()) {
        json.field("workerError", stats.workerError);
        json.field("abandonedChunks", stats.abandonedChunks);
    }
    json.beginObject("injectionStats");
    writeInjectionStats(json, stats.injection);
    json.endObject();
}

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Resolve the worker count an options struct asks for. */
unsigned
resolveWorkers(const CampaignOptions &options)
{
    return options.workers > 0 ? options.workers
                               : ThreadPool::defaultWorkerCount();
}

/** Resolve the chunk size: explicit, or ~4 chunks per worker. */
std::size_t
resolveChunkSize(const CampaignOptions &options, std::size_t sites,
                 unsigned workers)
{
    if (options.chunkSize > 0)
        return options.chunkSize;
    std::size_t target_chunks = static_cast<std::size_t>(workers) * 4;
    return std::max<std::size_t>(1, (sites + target_chunks - 1) /
                                        target_chunks);
}

/**
 * Scope guard attaching an observer to every worker injector for one
 * campaign and detaching on exit -- the observer chain lives on
 * runCampaign's stack, so a dangling pointer must never survive it
 * (abortAfterSites unwinds through here).
 */
class InjectorObserverScope
{
  public:
    InjectorObserverScope(
        std::vector<std::unique_ptr<Injector>> &injectors,
        CampaignObserver *observer)
        : injectors_(injectors)
    {
        for (unsigned w = 0; w < injectors_.size(); ++w)
            injectors_[w]->setObserver(observer, w);
    }

    ~InjectorObserverScope()
    {
        for (auto &injector : injectors_)
            injector->setObserver(nullptr, 0);
    }

  private:
    std::vector<std::unique_ptr<Injector>> &injectors_;
};

} // namespace

CampaignEngine::CampaignEngine(const sim::Program &program,
                               const sim::LaunchConfig &config,
                               const sim::GlobalMemory &image,
                               std::vector<OutputRegion> outputs,
                               CampaignOptions options)
    : CampaignEngine(Injector(program, config, image, std::move(outputs)),
                     std::move(options))
{
}

CampaignEngine::CampaignEngine(const Injector &prototype,
                               CampaignOptions options)
    : options_(std::move(options)), pool_(resolveWorkers(options_))
{
    injectors_.reserve(pool_.workerCount());
    for (unsigned i = 0; i < pool_.workerCount(); ++i) {
        injectors_.push_back(prototype.clone());
        if (options_.faultModel) {
            // Model randomness is keyed off the campaign seed, making
            // site -> plan a pure function of the campaign identity.
            injectors_.back()->setFaultModel(options_.faultModel,
                                             options_.journalKey.seed);
        }
        if (options_.protection)
            injectors_.back()->setProtectionPlan(options_.protection);
    }
}

std::uint64_t
CampaignEngine::runsPerformed() const
{
    std::uint64_t total = 0;
    for (const auto &injector : injectors_)
        total += injector->runsPerformed();
    return total;
}

void
CampaignEngine::classifyPending(
    const std::vector<std::size_t> &pending,
    const std::function<const FaultSite &(std::size_t)> &siteAt,
    std::vector<Outcome> &outcomes,
    std::vector<InjectionDetail> &details, CampaignJournal *journal,
    CampaignObserver *observer)
{
    unsigned workers = pool_.workerCount();
    std::size_t count = pending.size();
    std::size_t chunk_size = resolveChunkSize(options_, count, workers);
    std::size_t chunks =
        count > 0 ? (count + chunk_size - 1) / chunk_size : 0;

    stats_.workers = workers;
    stats_.chunkSize = chunk_size;
    stats_.chunks = chunks;
    stats_.perWorkerRuns.assign(workers, 0);

    const std::uint64_t block_threads =
        injectors_[0]->executor().config().block.count();

    std::mutex progress_mutex;
    std::uint64_t sites_done = 0;

    std::vector<InjectionStats> before;
    before.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        before.push_back(injectors_[w]->stats());

    // The injectors relay checkpoint-restore and slice-hazard events
    // while classified; detached again even if a worker body throws.
    InjectorObserverScope injector_observers(injectors_, observer);

    auto body = [&](std::size_t chunk, unsigned worker) {
        std::size_t begin = chunk * chunk_size;
        std::size_t end = std::min(begin + chunk_size, count);
        Injector &injector = *injectors_[worker];

        // Process the chunk in (cta, thread, dynIndex) order so
        // consecutive sites resume from the same checkpoint; outcomes
        // land at their original index, so results are unaffected.
        std::vector<std::size_t> order(pending.begin() +
                                           static_cast<std::ptrdiff_t>(
                                               begin),
                                       pending.begin() +
                                           static_cast<std::ptrdiff_t>(
                                               end));
        auto keyOf = [&](std::size_t original) -> SiteKey {
            const FaultSite &site = siteAt(original);
            return {site.thread / block_threads, site.thread,
                    site.dynIndex};
        };
        std::sort(order.begin(), order.end(),
                  [&keyOf](std::size_t a, std::size_t b) {
                      return keyOf(a) < keyOf(b);
                  });
        if (observer) {
            // Per-site wall time is only measured with an observer
            // attached: the unobserved path pays nothing.
            for (std::size_t original : order) {
                auto t_site = Clock::now();
                const FaultSite &site = siteAt(original);
                Outcome outcome =
                    injector.inject(site, &details[original]);
                outcomes[original] = outcome;
                observer->onSiteClassified(
                    {&site, outcome, secondsSince(t_site), worker});
            }
        } else {
            for (std::size_t original : order) {
                outcomes[original] =
                    injector.inject(siteAt(original), &details[original]);
            }
        }

        std::lock_guard<std::mutex> lock(progress_mutex);
        stats_.perWorkerRuns[worker] += end - begin;
        sites_done += end - begin;
        if (journal) {
            // The chunk fold point: make this chunk's outcomes durable
            // in one write + fsync before reporting progress, so a
            // kill never loses a chunk whose progress was observed.
            for (std::size_t p = begin; p < end; ++p) {
                journal->append(pending[p], outcomes[pending[p]],
                                details[pending[p]]);
            }
            CampaignJournal::CommitInfo commit = journal->commitChunk();
            if (observer) {
                observer->onJournalCommit(
                    {commit.records, commit.bytes, false});
            }
        }
        if (observer) {
            observer->onChunkFolded({chunk, end - begin, sites_done,
                                     count, worker});
        }
        if (options_.abortAfterSites > 0 &&
            sites_done >= options_.abortAfterSites) {
            throw CampaignAborted(
                "campaign aborted by abortAfterSites after " +
                std::to_string(sites_done) + " sites");
        }
    };
    try {
        pool_.parallelFor(chunks, body);
    } catch (const CampaignAborted &) {
        // The testing kill-switch; callers assert on the exact type.
        stats_.abandonedChunks = pool_.lastAbandonedChunks();
        throw;
    } catch (const std::exception &e) {
        // A worker body failed: surface the cause and how much of the
        // job the pool abandoned because of it, instead of letting the
        // raw exception escape with no campaign context.
        stats_.workerError = e.what();
        stats_.abandonedChunks = pool_.lastAbandonedChunks();
        throw CampaignError(
            "campaign failed: " + std::string(e.what()) + " (" +
                std::to_string(stats_.abandonedChunks) + " of " +
                std::to_string(chunks) + " chunks abandoned)",
            stats_.abandonedChunks);
    }

    for (unsigned w = 0; w < workers; ++w)
        stats_.injection.merge(injectors_[w]->stats().since(before[w]));
}

CampaignResult
CampaignEngine::runCampaign(
    std::size_t count,
    const std::function<const FaultSite &(std::size_t)> &siteAt,
    const std::function<double(std::size_t)> &weightAt, bool weighted,
    const char *label)
{
    auto t_start = Clock::now();
    stats_ = CampaignStats{};
    stats_.sites = count;
    stats_.journalPath = options_.journalPath;

    // The single notification path; the injector scope guard in
    // classifyPending keeps no pointer past this frame.
    CampaignObserver *observer = options_.observer;

    if (observer) {
        observer->onCampaignBegin({label,
                                   static_cast<std::uint64_t>(count),
                                   pool_.workerCount(),
                                   !options_.journalPath.empty()});
    }

    // --- Phase 1: journal open / outcome replay.
    std::vector<Outcome> outcomes(count, Outcome::Invalid);
    std::vector<InjectionDetail> details(count);
    std::vector<std::size_t> pending;
    std::optional<CampaignJournal> journal;
    CampaignJournal::Resume resume;
    if (!options_.journalPath.empty()) {
        // A protected campaign classifies differently, so its journal
        // must never resume an unprotected one (or one protected by a
        // different plan): fold the plan identity into the key tag.
        JournalKey key = options_.journalKey;
        if (options_.protection) {
            key.tag += "|protect:" +
                       std::to_string(options_.protection->identityHash());
        }
        std::uint64_t hash =
            journalHeaderHash(key, count, siteAt, weightAt);
        std::uint64_t model_hash =
            injectors_[0]->faultModel().identityHash();
        if (options_.resume) {
            journal.emplace(CampaignJournal::openOrResume(
                options_.journalPath, hash, model_hash, count, resume));
            stats_.resumed = true;
        } else {
            journal.emplace(CampaignJournal::create(options_.journalPath,
                                                    hash, model_hash,
                                                    count));
        }
    }
    std::vector<bool> from_cache(count, false);
    if (resume.done.size() == count && resume.doneCount > 0) {
        for (std::size_t i = 0; i < count; ++i) {
            if (resume.done[i]) {
                outcomes[i] = resume.outcomes[i];
                details[i] = resume.details[i];
                from_cache[i] = resume.cached[i];
            } else {
                pending.push_back(i);
            }
        }
    } else {
        pending.resize(count);
        std::iota(pending.begin(), pending.end(), std::size_t{0});
    }
    stats_.replayedSites = count - pending.size();

    // --- Phase 1b: replay unchanged sections from the section cache.
    // Serial, on the campaign thread, before any injection: every
    // still-pending site is mapped to its section coordinates and
    // looked up; hits fill their outcome slot (journaled like any
    // other completed site, flagged fromCache) and misses remember
    // their coordinates so the freshly injected outcome can be stored
    // back after classification.
    std::vector<std::pair<std::size_t, SiteSectionKey>> cache_misses;
    const bool caching =
        options_.sectionCache && options_.sectionIndex;
    const std::uint64_t cache_model_hash =
        caching ? injectors_[0]->faultModel().identityHash() : 0;
    if (caching && !pending.empty()) {
        SectionCache &cache = *options_.sectionCache;
        const SectionIndex &index = *options_.sectionIndex;
        const SectionCacheStats io_before = cache.stats();
        std::vector<std::size_t> still_pending;
        still_pending.reserve(pending.size());
        std::uint64_t appended = 0;
        for (std::size_t i : pending) {
            const FaultSite &site = siteAt(i);
            std::optional<SiteSectionKey> key = index.keyFor(site);
            if (!key) {
                // Un-indexed thread or non-injectable record: always
                // the injection path, and nothing to store back.
                still_pending.push_back(i);
                stats_.cacheMisses++;
                if (observer)
                    observer->onCacheMiss({&site, 0});
                continue;
            }
            std::optional<SectionCacheRecord> rec = cache.lookup(
                key->sectionHash,
                sectionCacheKey(key->siteHash, cache_model_hash,
                                options_.journalKey.seed));
            if (!rec) {
                still_pending.push_back(i);
                cache_misses.emplace_back(i, *key);
                stats_.cacheMisses++;
                if (observer)
                    observer->onCacheMiss({&site, key->sectionHash});
                continue;
            }
            outcomes[i] = rec->outcome;
            details[i] = InjectionDetail{};
            // kStaticFollowsSite resolves against the *current* kernel:
            // an insertion elsewhere renumbered static indices without
            // invalidating the outcome, and the anatomy ranking must
            // attribute it to today's index.
            details[i].staticIndex =
                rec->staticIndex == kStaticFollowsSite
                    ? key->staticIndex
                    : rec->staticIndex;
            details[i].hasAnatomy = rec->hasAnatomy;
            if (rec->hasAnatomy)
                details[i].anatomy = rec->anatomy;
            from_cache[i] = true;
            stats_.cacheHits++;
            if (journal) {
                journal->append(i, outcomes[i], details[i], true);
                appended++;
            }
            if (observer) {
                observer->onCacheHit(
                    {&site, outcomes[i], key->sectionHash});
            }
        }
        stats_.cachedSites = pending.size() - still_pending.size();
        pending = std::move(still_pending);
        if (journal && appended > 0) {
            CampaignJournal::CommitInfo commit = journal->commitChunk();
            if (observer) {
                observer->onJournalCommit(
                    {commit.records, commit.bytes, false});
            }
        }
        stats_.cacheBytesRead =
            cache.stats().bytesRead - io_before.bytesRead;
    }
    stats_.replaySeconds = secondsSince(t_start);
    if (observer)
        observer->onPhaseDone(
            {CampaignPhase::Replay, stats_.replaySeconds});

    // --- Phase 2: parallel classification of the remaining sites.
    auto t_inject = Clock::now();
    classifyPending(pending, siteAt, outcomes, details,
                    journal ? &*journal : nullptr, observer);
    if (caching && !cache_misses.empty()) {
        // Store every freshly classified outcome back under the
        // coordinates remembered at lookup time (including Invalid:
        // outcomes are deterministic functions of the key).  A store
        // uses kStaticFollowsSite when the detail points at the site's
        // own instruction, so the entry survives renumbering edits.
        SectionCache &cache = *options_.sectionCache;
        const SectionCacheStats io_before = cache.stats();
        for (const auto &[i, key] : cache_misses) {
            SectionCacheRecord rec;
            rec.outcome = outcomes[i];
            rec.staticIndex = details[i].staticIndex == key.staticIndex
                                  ? kStaticFollowsSite
                                  : details[i].staticIndex;
            rec.hasAnatomy = details[i].hasAnatomy;
            if (rec.hasAnatomy)
                rec.anatomy = details[i].anatomy;
            cache.store(key.sectionHash,
                        sectionCacheKey(key.siteHash, cache_model_hash,
                                        options_.journalKey.seed),
                        rec);
        }
        cache.flush();
        stats_.cacheBytesWritten =
            cache.stats().bytesWritten - io_before.bytesWritten;
    }
    stats_.injectedSites = pending.size();
    stats_.injectSeconds = secondsSince(t_inject);
    stats_.sitesPerSecond =
        stats_.injectSeconds > 0.0
            ? static_cast<double>(stats_.injectedSites) /
                  stats_.injectSeconds
            : 0.0;
    if (observer)
        observer->onPhaseDone(
            {CampaignPhase::Inject, stats_.injectSeconds});

    // --- Phase 3: serial fold in site order.  Identical order whether
    // an outcome was injected now or replayed from the journal, so the
    // weighted double accumulation is bit-identical to an
    // uninterrupted serial campaign.
    auto t_fold = Clock::now();
    CampaignResult result;
    for (std::size_t i = 0; i < count; ++i) {
        double weight = weighted ? weightAt(i) : 1.0;
        result.dist.add(outcomes[i], weight);
        result.runs++;
        // Anatomy aggregation rides the same serial in-site-order fold,
        // so the profile is bit-identical at any worker count; Invalid
        // sites never reach it.
        if (outcomes[i] != Outcome::Invalid) {
            result.anatomy.addRun(outcomes[i], weight,
                                  details[i].staticIndex,
                                  details[i].hasAnatomy
                                      ? &details[i].anatomy
                                      : nullptr);
        }
    }
    result.injection = stats_.injection;
    if (options_.keepSiteOutcomes)
        result.siteOutcomes = outcomes;
    stats_.foldSeconds = secondsSince(t_fold);
    stats_.elapsedSeconds = secondsSince(t_start);

    // Seal the journal unless this was a replay of an already-complete
    // campaign (its footer already records the original run's phases).
    if (journal && !resume.complete && options_.sectionIndex) {
        // Per-section summaries, in deterministic (thread, section)
        // order; sealed with the footer below.
        const SectionIndex &index = *options_.sectionIndex;
        std::map<std::pair<std::uint64_t, std::uint32_t>,
                 JournalSectionSummary>
            sections;
        for (std::size_t i = 0; i < count; ++i) {
            const FaultSite &site = siteAt(i);
            std::optional<SiteSectionKey> key = index.keyFor(site);
            if (!key)
                continue;
            const sim::SectionedTrace *sectioned =
                index.threadSections(site.thread);
            const auto ordinal =
                sectioned->sectionOf[static_cast<std::size_t>(
                    site.dynIndex)];
            const sim::TraceSection &section =
                sectioned->sections[ordinal];
            JournalSectionSummary &summary =
                sections[{site.thread, ordinal}];
            summary.sectionHash = key->sectionHash;
            summary.tailHash = section.tailContentHash;
            summary.thread = site.thread;
            summary.firstRecord = section.firstRecord;
            summary.recordCount = section.recordCount;
            summary.sites++;
            if (from_cache[i])
                summary.cachedSites++;
            summary.outcomes[static_cast<std::size_t>(outcomes[i])]++;
            if (details[i].hasAnatomy) {
                summary.sdcPatterns[static_cast<std::size_t>(
                    details[i].anatomy.pattern)]++;
            }
        }
        for (const auto &[coords, summary] : sections)
            journal->appendSectionSummary(summary);
    }
    if (journal && !resume.complete) {
        CampaignJournal::Phases phases;
        phases.replaySeconds = stats_.replaySeconds;
        phases.injectSeconds = stats_.injectSeconds;
        phases.foldSeconds = stats_.foldSeconds;
        phases.sitesPerSecond = stats_.sitesPerSecond;
        phases.sitesDone = count;
        phases.workers = stats_.workers;
        CampaignJournal::CommitInfo sealed = journal->writeFooter(phases);
        if (observer)
            observer->onJournalCommit(
                {sealed.records, sealed.bytes, true});
    }
    if (observer) {
        observer->onPhaseDone({CampaignPhase::Fold, stats_.foldSeconds});
        observer->onCampaignEnd({&stats_});
    }

    inform(label, stats_.summary());
    return result;
}

CampaignResult
CampaignEngine::run(const std::vector<FaultSite> &sites)
{
    return runCampaign(
        sites.size(),
        [&sites](std::size_t i) -> const FaultSite & { return sites[i]; },
        [](std::size_t) { return 1.0; }, false, "campaign: ");
}

CampaignResult
CampaignEngine::run(const std::vector<WeightedSite> &sites)
{
    return runCampaign(
        sites.size(),
        [&sites](std::size_t i) -> const FaultSite & {
            return sites[i].site;
        },
        [&sites](std::size_t i) { return sites[i].weight; }, true,
        "campaign (weighted): ");
}

CampaignResult
CampaignEngine::run(const FaultSpace &space, std::size_t runs, Prng &prng)
{
    auto sites = space.sampleSites(runs, prng);
    return run(sites);
}

} // namespace fsp::faults
