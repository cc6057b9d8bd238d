/**
 * @file
 * Observability suite: the util/metrics primitives (shard-fold
 * determinism, histogram bucketing, Prometheus/JSON export) and the
 * campaign observer layer (event ordering and threading contract,
 * metrics-on/off bit-identity, journal resume accounting, and the
 * deprecated progress-callback adapter).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <vector>

#include "analysis/analyzer.hh"
#include "analysis/observability.hh"
#include "apps/app.hh"
#include "reference_campaign.hh"
#include "faults/campaign_engine.hh"
#include "faults/observer.hh"
#include "util/json.hh"
#include "util/metrics.hh"

namespace fsp {
namespace {

// ---------------------------------------------------------------------
// util/metrics primitives.

TEST(Metrics, CounterAndGaugeBasics)
{
    metrics::Registry reg;
    auto c = reg.counter("fsp_test_total", "test counter");
    auto g = reg.gauge("fsp_test_gauge", "test gauge");
    EXPECT_TRUE(c.valid());
    EXPECT_TRUE(g.valid());

    reg.add(c);
    reg.add(c, 41);
    EXPECT_EQ(reg.counterValue(c), 42u);

    reg.set(g, 1.5);
    reg.addGauge(g, 0.25);
    EXPECT_DOUBLE_EQ(reg.gaugeValue(g), 1.75);
}

TEST(Metrics, RegistrationIsIdempotent)
{
    metrics::Registry reg;
    auto a = reg.counter("fsp_dup_total", "dup", "k=\"v\"");
    auto b = reg.counter("fsp_dup_total", "dup", "k=\"v\"");
    EXPECT_EQ(a.slot, b.slot);
    reg.add(a);
    reg.add(b);
    EXPECT_EQ(reg.counterValue(a), 2u);

    // A different label body is a distinct sample of the family.
    auto c = reg.counter("fsp_dup_total", "dup", "k=\"w\"");
    EXPECT_NE(a.slot, c.slot);

    auto h1 = reg.histogram("fsp_dup_hist", "dup", {1.0, 2.0});
    auto h2 = reg.histogram("fsp_dup_hist", "dup", {1.0, 2.0});
    EXPECT_EQ(h1.slot, h2.slot);
    std::size_t samples = reg.sampleCount();
    reg.histogram("fsp_dup_hist", "dup", {1.0, 2.0});
    EXPECT_EQ(reg.sampleCount(), samples);
}

TEST(Metrics, HistogramBucketEdges)
{
    metrics::Registry reg;
    auto h = reg.histogram("fsp_edges", "edges", {1.0, 2.0, 4.0});

    // v <= edge lands in that bucket; beyond the last edge overflows.
    reg.observe(h, 0.5);  // bucket 0
    reg.observe(h, 1.0);  // bucket 0 (inclusive upper bound)
    reg.observe(h, 1.5);  // bucket 1
    reg.observe(h, 4.0);  // bucket 2
    reg.observe(h, 9.0);  // overflow

    auto view = reg.histogramView(h);
    ASSERT_NE(view.buckets, nullptr);
    ASSERT_EQ(view.buckets->size(), 4u);
    EXPECT_EQ((*view.buckets)[0], 2u);
    EXPECT_EQ((*view.buckets)[1], 1u);
    EXPECT_EQ((*view.buckets)[2], 1u);
    EXPECT_EQ((*view.buckets)[3], 1u);
    EXPECT_EQ(view.count, 5u);
    EXPECT_DOUBLE_EQ(view.sum, 0.5 + 1.0 + 1.5 + 4.0 + 9.0);
}

/**
 * The core determinism property: integer-valued shard tallies fold to
 * identical registry totals no matter how the work was distributed
 * over workers or in which order the shards fold.
 */
TEST(Metrics, ShardFoldIsDeterministicAcrossWorkerCounts)
{
    constexpr std::size_t kEvents = 240;

    std::uint64_t expect_counter = 0;
    std::vector<std::uint64_t> expect_buckets;
    double expect_sum = 0.0;

    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        metrics::Registry reg;
        auto c = reg.counter("fsp_fold_total", "fold");
        auto h =
            reg.histogram("fsp_fold_hist", "fold", {1.0, 4.0, 16.0});

        std::vector<metrics::Shard> shards;
        for (unsigned w = 0; w < workers; ++w)
            shards.push_back(reg.makeShard());

        // Deterministic event stream, round-robined over the shards.
        // Integer-valued observations make even the double sum exact.
        for (std::size_t i = 0; i < kEvents; ++i) {
            metrics::Shard &s = shards[i % workers];
            s.add(c, (i % 3) + 1);
            s.observe(h, static_cast<double>(i % 20));
        }
        // Fold in reverse order to prove order independence too.
        for (std::size_t w = shards.size(); w-- > 0;)
            reg.fold(shards[w]);

        auto view = reg.histogramView(h);
        if (workers == 1) {
            expect_counter = reg.counterValue(c);
            expect_buckets = *view.buckets;
            expect_sum = view.sum;
            EXPECT_EQ(view.count, kEvents);
        } else {
            SCOPED_TRACE("workers=" + std::to_string(workers));
            EXPECT_EQ(reg.counterValue(c), expect_counter);
            EXPECT_EQ(*view.buckets, expect_buckets);
            EXPECT_EQ(view.count, kEvents);
            EXPECT_EQ(view.sum, expect_sum); // exact, not approximate
        }
    }
}

TEST(Metrics, FoldResetsTheShard)
{
    metrics::Registry reg;
    auto c = reg.counter("fsp_reset_total", "reset");
    metrics::Shard shard = reg.makeShard();
    shard.add(c, 5);
    reg.fold(shard);
    EXPECT_EQ(reg.counterValue(c), 5u);
    reg.fold(shard); // second fold must contribute nothing
    EXPECT_EQ(reg.counterValue(c), 5u);
}

TEST(Metrics, PrometheusExposition)
{
    metrics::Registry reg;
    auto c1 = reg.counter("fsp_outcomes_total", "outcomes",
                          "outcome=\"masked\"");
    auto c2 = reg.counter("fsp_outcomes_total", "outcomes",
                          "outcome=\"sdc\"");
    auto g = reg.gauge("fsp_workers", "workers");
    auto h = reg.histogram("fsp_lat_seconds", "latency", {0.1, 1.0});
    reg.add(c1, 3);
    reg.add(c2, 2);
    reg.set(g, 4.0);
    reg.observe(h, 0.05);
    reg.observe(h, 0.5);
    reg.observe(h, 7.0);

    std::ostringstream os;
    reg.writePrometheus(os);
    std::string text = os.str();

    // One HELP/TYPE pair per family, not per sample.
    auto count_of = [&text](const std::string &needle) {
        std::size_t n = 0;
        for (std::size_t pos = text.find(needle);
             pos != std::string::npos;
             pos = text.find(needle, pos + needle.size()))
            n++;
        return n;
    };
    EXPECT_EQ(count_of("# HELP fsp_outcomes_total"), 1u);
    EXPECT_EQ(count_of("# TYPE fsp_outcomes_total counter"), 1u);
    EXPECT_NE(text.find("fsp_outcomes_total{outcome=\"masked\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("fsp_outcomes_total{outcome=\"sdc\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE fsp_workers gauge"),
              std::string::npos);
    EXPECT_NE(text.find("fsp_workers 4"), std::string::npos);

    // Histogram buckets are cumulative and +Inf equals _count.
    EXPECT_NE(text.find("# TYPE fsp_lat_seconds histogram"),
              std::string::npos);
    EXPECT_NE(text.find("fsp_lat_seconds_bucket{le=\"0.1\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("fsp_lat_seconds_bucket{le=\"1\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("fsp_lat_seconds_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("fsp_lat_seconds_count 3"), std::string::npos);
    EXPECT_NE(text.find("fsp_lat_seconds_sum"), std::string::npos);
}

TEST(Metrics, JsonSnapshotRoundTrip)
{
    metrics::Registry reg;
    auto c = reg.counter("fsp_json_total", "json", "k=\"v\"");
    auto h = reg.histogram("fsp_json_hist", "json", {1.0, 2.0});
    reg.add(c, 7);
    reg.observe(h, 1.5);

    std::ostringstream os;
    {
        JsonWriter json(os);
        json.beginObject();
        reg.writeJson(json);
        json.endObject();
    }
    std::string text = os.str();
    EXPECT_NE(text.find("\"metrics\""), std::string::npos);
    EXPECT_NE(text.find("\"fsp_json_total\""), std::string::npos);
    EXPECT_NE(text.find("\"counter\""), std::string::npos);
    EXPECT_NE(text.find("\"fsp_json_hist\""), std::string::npos);
    EXPECT_NE(text.find("\"histogram\""), std::string::npos);
    EXPECT_NE(text.find("\"bucketCounts\""), std::string::npos);
}

TEST(Metrics, ScopedPhaseTimerIsNullSafe)
{
    // No registry at all: must be a harmless no-op.
    {
        metrics::ScopedPhaseTimer timer(nullptr, metrics::GaugeId{});
        timer.stop();
    }
    metrics::Registry reg;
    auto g = reg.gauge("fsp_timer_seconds", "timer");
    {
        metrics::ScopedPhaseTimer timer(&reg, g);
    }
    EXPECT_GE(reg.gaugeValue(g), 0.0);
}

// ---------------------------------------------------------------------
// Campaign observer layer.

/**
 * Records the event stream with enough detail to verify the engine's
 * ordering and threading contract.  Fold-point and campaign-scope
 * events are serialized by the engine; worker-thread events take the
 * recorder's own lock.
 */
class RecordingObserver final : public faults::CampaignObserver
{
  public:
    void
    onCampaignBegin(const CampaignBegin &event) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        begins++;
        announcedWorkers = event.workers;
        announcedSites = event.sitesTotal;
        lastSitesDone = 0; // per-run monotonicity
        EXPECT_EQ(ends, 0u) << "begin after end";
    }

    void
    onSiteClassified(const SiteClassified &event) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        sitesClassified++;
        EXPECT_LT(event.worker, announcedWorkers);
        EXPECT_NE(event.site, nullptr);
        EXPECT_GE(event.seconds, 0.0);
    }

    void
    onCheckpointRestored(const CheckpointRestored &event) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        checkpointRestores++;
        EXPECT_LT(event.worker, announcedWorkers);
    }

    void
    onSliceHazard(const SliceHazard &event) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        sliceHazards++;
        EXPECT_LT(event.worker, announcedWorkers);
    }

    void
    onChunkFolded(const ChunkFolded &event) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        chunksFolded++;
        // Fold-point events are serialized in completion order, so
        // sitesDone must be strictly increasing.
        EXPECT_GT(event.sitesDone, lastSitesDone);
        lastSitesDone = event.sitesDone;
        EXPECT_LE(event.sitesDone, event.sitesTotal);
        // Every classified site is reported before its chunk folds.
        EXPECT_LE(event.sitesDone, sitesClassified);
    }

    void
    onJournalCommit(const JournalCommit &event) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        journalCommits++;
        journalBytes += event.bytes;
        if (event.footer)
            footerCommits++;
    }

    void
    onPhaseDone(const PhaseDone &event) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        phases.push_back(event.phase);
        EXPECT_GE(event.seconds, 0.0);
    }

    void
    onCampaignEnd(const CampaignEnd &event) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ends++;
        ASSERT_NE(event.stats, nullptr);
        statsInjected = event.stats->injectedSites;
        statsReplayed = event.stats->replayedSites;
    }

    std::mutex mutex_;
    unsigned begins = 0;
    unsigned ends = 0;
    unsigned announcedWorkers = 0;
    std::uint64_t announcedSites = 0;
    std::uint64_t sitesClassified = 0;
    std::uint64_t checkpointRestores = 0;
    std::uint64_t sliceHazards = 0;
    std::uint64_t chunksFolded = 0;
    std::uint64_t lastSitesDone = 0;
    std::uint64_t journalCommits = 0;
    std::uint64_t journalBytes = 0;
    std::uint64_t footerCommits = 0;
    std::vector<faults::CampaignPhase> phases;
    std::uint64_t statsInjected = 0;
    std::uint64_t statsReplayed = 0;
};

TEST(CampaignObserver, EventOrderingUnderSlicingAndCheckpoints)
{
    // MVT slices (independent CTAs) and records checkpoints, so this
    // exercises the worker-thread event paths too.
    const apps::KernelSpec *spec = apps::findKernel("MVT/K1");
    ASSERT_NE(spec, nullptr);
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);

    Prng prng(11);
    auto sites = ka.space().sampleSites(30, prng);

    RecordingObserver recorder;
    faults::CampaignOptions options;
    options.workers = 4;
    options.chunkSize = 5;
    options.observer = &recorder;
    faults::CampaignEngine engine(ka.injector(), options);
    ASSERT_TRUE(engine.slicingActive());
    ASSERT_TRUE(engine.checkpointsActive());

    auto result = engine.run(sites);
    EXPECT_EQ(result.runs, sites.size());

    EXPECT_EQ(recorder.begins, 1u);
    EXPECT_EQ(recorder.ends, 1u);
    EXPECT_EQ(recorder.announcedSites, sites.size());
    EXPECT_EQ(recorder.sitesClassified, sites.size());
    EXPECT_EQ(recorder.lastSitesDone, sites.size());
    EXPECT_EQ(recorder.chunksFolded, (sites.size() + 4) / 5);
    EXPECT_EQ(recorder.statsInjected, sites.size());
    // Checkpoint restores observed must match the engine's counters.
    EXPECT_EQ(recorder.checkpointRestores,
              engine.lastStats().injection.checkpointRestores);
    EXPECT_EQ(recorder.sliceHazards,
              engine.lastStats().injection.hazardFallbacks);
    // Phases complete in engine order.
    ASSERT_EQ(recorder.phases.size(), 3u);
    EXPECT_EQ(recorder.phases[0], faults::CampaignPhase::Replay);
    EXPECT_EQ(recorder.phases[1], faults::CampaignPhase::Inject);
    EXPECT_EQ(recorder.phases[2], faults::CampaignPhase::Fold);
    // No journal attached: no commit events.
    EXPECT_EQ(recorder.journalCommits, 0u);
}

TEST(CampaignObserver, ResultsAreBitIdenticalWithAndWithoutObservers)
{
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    ASSERT_NE(spec, nullptr);
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);

    Prng prng(21);
    auto sites = ka.space().sampleSites(24, prng);
    std::vector<faults::WeightedSite> weighted;
    for (std::size_t i = 0; i < sites.size(); ++i)
        weighted.push_back(
            {sites[i], 0.1 + 0.3 * static_cast<double>(i % 7)});

    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        faults::CampaignOptions bare_options;
        bare_options.workers = workers;
        bare_options.chunkSize = 3;
        faults::CampaignEngine bare(ka.injector(), bare_options);
        auto expected = bare.run(weighted);

        metrics::Registry registry;
        faults::MetricsObserver metrics_observer(registry);
        faults::LiveProgress live(3600.0); // interval never elapses
        faults::ObserverList observers;
        observers.add(&metrics_observer);
        observers.add(&live);

        faults::CampaignOptions observed_options = bare_options;
        observed_options.observer = &observers;
        faults::CampaignEngine observed(ka.injector(),
                                        observed_options);
        auto got = observed.run(weighted);

        // Bit-identical: same runs and exact double weights.
        EXPECT_EQ(expected.runs, got.runs);
        for (faults::Outcome o :
             {faults::Outcome::Masked, faults::Outcome::SDC,
              faults::Outcome::Other}) {
            EXPECT_EQ(expected.dist.weightOf(o), got.dist.weightOf(o));
        }
    }
}

TEST(CampaignObserver, MetricsObserverCountsMatchCampaignStats)
{
    const apps::KernelSpec *spec = apps::findKernel("PathFinder/K1");
    ASSERT_NE(spec, nullptr);
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);

    Prng prng(5);
    auto sites = ka.space().sampleSites(20, prng);

    metrics::Registry registry;
    faults::MetricsObserver observer(registry);
    faults::CampaignOptions options;
    options.workers = 3;
    options.chunkSize = 4;
    options.observer = &observer;
    faults::CampaignEngine engine(ka.injector(), options);
    auto result = engine.run(sites);
    const faults::CampaignStats &stats = engine.lastStats();

    auto counter = [&registry](const char *name, const char *labels) {
        return registry.counterValue(
            registry.counter(name, "", labels));
    };
    std::uint64_t outcomes = 0;
    for (const char *label :
         {"outcome=\"masked\"", "outcome=\"sdc\"", "outcome=\"other\"",
          "outcome=\"invalid\""})
        outcomes += counter("fsp_campaign_sites_total", label);
    EXPECT_EQ(outcomes, stats.injectedSites);
    EXPECT_EQ(counter("fsp_campaigns_total", ""), 1u);
    EXPECT_EQ(counter("fsp_campaign_scheduled_sites_total", ""),
              sites.size());
    EXPECT_EQ(counter("fsp_campaign_chunks_total", ""), stats.chunks);
    EXPECT_EQ(counter("fsp_campaign_checkpoint_restores_total", ""),
              stats.injection.checkpointRestores);
    EXPECT_EQ(counter("fsp_campaign_skipped_dyn_instrs_total", ""),
              stats.injection.skippedDynInstrs);
    EXPECT_EQ(counter("fsp_campaign_slice_hazards_total", ""),
              stats.injection.hazardFallbacks);
    EXPECT_EQ(counter("fsp_campaign_hazard_loads_in_slice_total", ""),
              stats.injection.hazardLoadsInSlice);
    EXPECT_EQ(counter("fsp_campaign_closure_runs_total", ""),
              stats.injection.closureRuns);
    EXPECT_EQ(counter("fsp_campaign_closure_ctas_total", ""),
              stats.injection.closureCtas);
    EXPECT_EQ(registry.gaugeValue(
                  registry.gauge("fsp_campaign_workers", "")),
              static_cast<double>(stats.workers));

    // The latency histograms saw every injected site exactly once.
    std::uint64_t observed = 0;
    for (const char *label :
         {"outcome=\"masked\"", "outcome=\"sdc\"", "outcome=\"other\"",
          "outcome=\"invalid\""}) {
        auto id = registry.histogram("fsp_injection_seconds", "", {},
                                     label);
        observed += registry.histogramView(id).count;
    }
    EXPECT_EQ(observed, stats.injectedSites);
    (void)result;
}

TEST(CampaignObserver, JournalAbortResumeAccounting)
{
    const apps::KernelSpec *spec = apps::findKernel("PathFinder/K1");
    ASSERT_NE(spec, nullptr);
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);

    Prng prng(17);
    auto sites = ka.space().sampleSites(18, prng);

    std::string path =
        (std::filesystem::temp_directory_path() /
         "fsp_test_metrics_journal.fspj")
            .string();
    std::remove(path.c_str());

    metrics::Registry registry;
    faults::MetricsObserver metrics_observer(registry);
    RecordingObserver recorder;
    faults::ObserverList observers;
    observers.add(&metrics_observer);
    observers.add(&recorder);

    faults::CampaignOptions options;
    options.workers = 2;
    options.chunkSize = 3;
    options.journalPath = path;
    options.journalKey = {"test-metrics", 17};
    options.observer = &observers;
    options.abortAfterSites = 7;
    {
        faults::CampaignEngine engine(ka.injector(), options);
        EXPECT_THROW(engine.run(sites), faults::CampaignAborted);
    }
    // The kill happened after at least one durable commit, none of
    // them a footer.
    EXPECT_GE(recorder.journalCommits, 1u);
    EXPECT_EQ(recorder.footerCommits, 0u);
    std::uint64_t aborted_commits = recorder.journalCommits;

    options.abortAfterSites = 0;
    options.resume = true;
    faults::CampaignEngine engine(ka.injector(), options);
    auto resumed = engine.run(sites);
    EXPECT_EQ(resumed.runs, sites.size());
    const faults::CampaignStats &stats = engine.lastStats();
    EXPECT_GT(stats.replayedSites, 0u);
    EXPECT_EQ(stats.replayedSites + stats.injectedSites, sites.size());

    // The resumed run sealed the journal with exactly one footer
    // commit, and the observer saw the replayed/injected split.
    EXPECT_EQ(recorder.footerCommits, 1u);
    EXPECT_GT(recorder.journalCommits, aborted_commits);
    EXPECT_EQ(recorder.statsReplayed, stats.replayedSites);
    EXPECT_EQ(recorder.statsInjected, stats.injectedSites);

    // Metrics: classified sites across both runs cover the campaign
    // exactly once (no double counting through the abort).
    std::uint64_t outcomes = 0;
    for (const char *label :
         {"outcome=\"masked\"", "outcome=\"sdc\"", "outcome=\"other\"",
          "outcome=\"invalid\""})
        outcomes += registry.counterValue(
            registry.counter("fsp_campaign_sites_total", "", label));
    EXPECT_EQ(outcomes, sites.size());
    EXPECT_EQ(registry.counterValue(registry.counter(
                  "fsp_campaign_replayed_sites_total", "")),
              stats.replayedSites);

    // The matching profile is still bit-identical to a clean run.
    faults::CampaignOptions clean;
    clean.workers = 2;
    clean.chunkSize = 3;
    faults::CampaignEngine reference(ka.injector(), clean);
    auto expected = reference.run(sites);
    EXPECT_EQ(expected.runs, resumed.runs);
    for (faults::Outcome o :
         {faults::Outcome::Masked, faults::Outcome::SDC,
          faults::Outcome::Other})
        EXPECT_EQ(expected.dist.weightOf(o), resumed.dist.weightOf(o));

    std::remove(path.c_str());
}

TEST(CampaignObserver, ChunkFoldEventsCoverEveryChunkExactlyOnce)
{
    const apps::KernelSpec *spec = apps::findKernel("PathFinder/K1");
    ASSERT_NE(spec, nullptr);
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small);

    Prng prng(3);
    auto sites = ka.space().sampleSites(10, prng);

    struct FoldCounter final : faults::CampaignObserver
    {
        std::uint64_t calls = 0;
        std::uint64_t lastDone = 0;
        void
        onChunkFolded(const ChunkFolded &event) override
        {
            // Serialized under the engine's progress lock.
            calls++;
            EXPECT_GT(event.sitesDone, lastDone);
            lastDone = event.sitesDone;
            EXPECT_EQ(event.sitesTotal, 10u);
        }
    } counter;

    faults::CampaignOptions options;
    options.workers = 2;
    options.chunkSize = 2;
    options.observer = &counter;
    faults::CampaignEngine engine(ka.injector(), options);
    engine.run(sites);
    EXPECT_EQ(counter.calls, 5u);
    EXPECT_EQ(counter.lastDone, sites.size());
}

TEST(Observability, BundleExportsPipelineAndCampaignFamilies)
{
    const apps::KernelSpec *spec = apps::findKernel("MVT/K1");
    ASSERT_NE(spec, nullptr);
    analysis::Observability obs;
    analysis::AnalysisConfig facade;
    facade.execMetrics = &obs.exec;
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small, facade);
    pruning::PruningConfig config;
    auto pruned = ka.prune(config, &obs.registry);
    ASSERT_FALSE(pruned.sites.empty());

    faults::CampaignOptions options;
    options.workers = 2;
    options.observer = obs.observer();
    ka.runPrunedCampaign(pruned, options);
    obs.finalize();

    std::ostringstream os;
    obs.registry.writePrometheus(os);
    std::string text = os.str();

    // Every pipeline stage and campaign phase appears in the export.
    for (const char *stage :
         {"stage=\"thread\"", "stage=\"profiling\"",
          "stage=\"instruction\"", "stage=\"loop\"", "stage=\"bit\""})
        EXPECT_NE(text.find(std::string("fsp_pruning_stage_seconds{") +
                            stage),
                  std::string::npos)
            << stage;
    for (const char *stage :
         {"stage=\"exhaustive\"", "stage=\"thread\"",
          "stage=\"instruction\"", "stage=\"loop\"", "stage=\"bit\""})
        EXPECT_NE(text.find(std::string("fsp_pruning_stage_sites{") +
                            stage),
                  std::string::npos)
            << stage;
    for (const char *phase :
         {"phase=\"replay\"", "phase=\"inject\"", "phase=\"fold\""})
        EXPECT_NE(
            text.find(std::string("fsp_campaign_phase_seconds{") +
                      phase),
            std::string::npos)
            << phase;
    EXPECT_NE(text.find("fsp_campaigns_total 1"), std::string::npos);
    EXPECT_NE(text.find("fsp_sim_runs_total"), std::string::npos);
    EXPECT_NE(text.find("fsp_injection_seconds_bucket"),
              std::string::npos);

    // The simulator counters flowed through the exec sink.
    auto runs_id = obs.registry.counter("fsp_sim_runs_total", "");
    EXPECT_GT(obs.registry.counterValue(runs_id), 0u);
    auto instrs_id = obs.registry.counter("fsp_sim_dyn_instrs_total", "");
    EXPECT_GT(obs.registry.counterValue(instrs_id), 0u);
}

} // namespace
} // namespace fsp
