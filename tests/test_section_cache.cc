/**
 * @file
 * Incremental-campaign suite: trace sectioning invariants, the
 * content-addressed section cache's disk format, and the campaign
 * engine's reuse path.
 *
 * The contract under test is twofold.  Soundness: a warm re-campaign
 * must produce a profile (distribution, run counts, SDC anatomy)
 * bit-identical to a cold run of the same kernel at any worker or
 * shard count, and a cache primed under one fault model or seed must
 * never satisfy a lookup under another.  Effectiveness: the three
 * FSP_GEMM_VARIANT edit scenarios (see apps/gemm.cc) must land where
 * the hash design says they land -- a guarded-off insertion reuses
 * everything, a value-preserving strength reduction reuses every
 * section after the edited one, and a semantically-neutral reorder
 * conservatively reuses nothing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "apps/app.hh"
#include "faults/campaign_engine.hh"
#include "faults/fault_model.hh"
#include "faults/section_cache.hh"
#include "faults/journal_merge.hh"
#include "faults/shard_plan.hh"
#include "ptx/assembler.hh"
#include "sim/executor.hh"
#include "sim/section.hh"
#include "util/logging.hh"

namespace fsp {
namespace {

using namespace faults;

/** Scoped FSP_GEMM_VARIANT setting (empty string clears it). */
class VariantGuard
{
  public:
    explicit VariantGuard(const std::string &variant)
    {
        if (variant.empty())
            unsetenv("FSP_GEMM_VARIANT");
        else
            setenv("FSP_GEMM_VARIANT", variant.c_str(), 1);
    }

    ~VariantGuard() { unsetenv("FSP_GEMM_VARIANT"); }
};

/** Fresh empty directory under the test temp root. */
std::string
freshDir(const std::string &name)
{
    std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** Value-recorded thread-0 trace of a GEMM variant, pre-split. */
struct TracedThread
{
    std::vector<sim::DynRecord> trace;
    sim::SectionedTrace sectioned;
};

TracedThread
traceGemmThread0(const std::string &variant,
                 const sim::SectionSplitOptions &split = {})
{
    VariantGuard guard(variant);
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    sim::Executor executor(setup.program, setup.launch);
    sim::TraceOptions opts;
    opts.recordValues = true;
    opts.traceThreads.insert(0);
    sim::GlobalMemory scratch = setup.memory;
    sim::RunResult run = executor.run(scratch, &opts);
    EXPECT_EQ(run.status, sim::RunStatus::Completed);
    TracedThread traced;
    traced.trace = run.trace.dynTraces.at(0);
    traced.sectioned = sim::splitTrace(setup.program.instructions(),
                                       traced.trace, split);
    return traced;
}

/** Exact (bit-identical) distribution comparison. */
void
expectSameDist(const OutcomeDist &a, const OutcomeDist &b)
{
    EXPECT_EQ(a.runs(), b.runs());
    for (Outcome o : {Outcome::Masked, Outcome::SDC, Outcome::Other,
                      Outcome::Invalid})
        EXPECT_EQ(a.weightOf(o), b.weightOf(o)) << outcomeName(o);
}

/** Exact SDC-anatomy comparison: patterns, magnitudes, ranking. */
void
expectSameAnatomy(const SdcAnatomyProfile &a, const SdcAnatomyProfile &b)
{
    EXPECT_EQ(a.sdcRuns(), b.sdcRuns());
    for (std::size_t p = 0; p < kNumSdcPatterns; ++p) {
        auto pattern = static_cast<SdcPattern>(p);
        EXPECT_EQ(a.patternWeight(pattern), b.patternWeight(pattern));
        EXPECT_EQ(a.patternRuns(pattern), b.patternRuns(pattern));
    }
    EXPECT_EQ(a.magnitude(), b.magnitude());
    ASSERT_EQ(a.byStatic().size(), b.byStatic().size());
    auto ita = a.byStatic().begin();
    for (const auto &[index, counts] : b.byStatic()) {
        EXPECT_EQ(ita->first, index);
        EXPECT_EQ(ita->second.masked, counts.masked) << index;
        EXPECT_EQ(ita->second.sdc, counts.sdc) << index;
        EXPECT_EQ(ita->second.other, counts.other) << index;
        EXPECT_EQ(ita->second.runs, counts.runs) << index;
        ++ita;
    }
}

/** One pruned GEMM campaign through the analysis facade. */
struct GemmRun
{
    CampaignResult result;
    CampaignStats stats;
};

struct GemmRunConfig
{
    std::string variant;
    std::string cacheDir;
    unsigned workers = 2;
    std::uint64_t seed = 1;
    std::string faultModel; ///< parse spec; empty = default
};

GemmRun
runGemm(const GemmRunConfig &config)
{
    VariantGuard guard(config.variant);
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    analysis::AnalysisConfig facade;
    facade.sectionCacheDir = config.cacheDir;
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small, facade,
                                config.seed + 41);

    pruning::PruningConfig pruning;
    pruning.seed = config.seed;
    pruning::PruningResult pruned = ka.prune(pruning);

    CampaignOptions options;
    options.workers = config.workers;
    options.journalKey.seed = config.seed;
    if (!config.faultModel.empty()) {
        std::string error;
        options.faultModel = parseFaultModel(config.faultModel, &error);
        EXPECT_TRUE(options.faultModel) << error;
    }
    GemmRun run;
    run.result = ka.runPrunedCampaignDetailed(pruned, options);
    run.stats = ka.campaignEngine(options).lastStats();
    return run;
}

// ---------------------------------------------------------------------
// Trace sectioning.

TEST(SplitTrace, CoversEveryRecordContiguously)
{
    fsp::setVerboseLogging(false);
    TracedThread traced = traceGemmThread0("");
    const sim::SectionedTrace &st = traced.sectioned;

    ASSERT_GT(st.sections.size(), 1u);
    ASSERT_EQ(st.sectionOf.size(), traced.trace.size());
    ASSERT_EQ(st.writeOffsetOf.size(), traced.trace.size());

    std::uint32_t next = 0;
    for (std::size_t s = 0; s < st.sections.size(); ++s) {
        const sim::TraceSection &section = st.sections[s];
        EXPECT_EQ(section.firstRecord, next);
        EXPECT_GT(section.recordCount, 0u);
        next += section.recordCount;
        for (std::uint32_t r = section.firstRecord; r < next; ++r)
            EXPECT_EQ(st.sectionOf[r], s);
    }
    EXPECT_EQ(next, traced.trace.size());

    // Write offsets restart at zero in every section and increment
    // only on executed destination writes.
    for (const sim::TraceSection &section : st.sections) {
        std::uint32_t expected = 0;
        for (std::uint32_t r = section.firstRecord;
             r < section.firstRecord + section.recordCount; ++r) {
            const sim::DynRecord &record = traced.trace[r];
            if (record.executed() && record.destBits != 0)
                EXPECT_EQ(st.writeOffsetOf[r], expected++);
        }
    }
}

TEST(SplitTrace, StrideAndExtraBoundariesCut)
{
    sim::SectionSplitOptions coarse;
    coarse.maxExecutedRecords = 1000000; // no stride cut at GEMM size
    TracedThread one = traceGemmThread0("", coarse);
    EXPECT_EQ(one.sectioned.sections.size(), 1u);

    sim::SectionSplitOptions fine = coarse;
    fine.extraBoundaries = {5, 5, 9}; // duplicates are benign
    TracedThread cut = traceGemmThread0("", fine);
    EXPECT_EQ(cut.sectioned.sections.size(), 3u);

    sim::SectionSplitOptions stride;
    stride.maxExecutedRecords = 8;
    TracedThread strided = traceGemmThread0("", stride);
    EXPECT_GT(strided.sectioned.sections.size(),
              traceGemmThread0("").sectioned.sections.size());

    // The tail hash telescopes: every section's tail differs from its
    // own content (it folds the sentinel and the rest of the trace),
    // and equal-content loop sections still have distinct tails.
    const auto &sections = strided.sectioned.sections;
    for (std::size_t i = 0; i + 1 < sections.size(); ++i)
        EXPECT_NE(sections[i].tailContentHash,
                  sections[i + 1].tailContentHash);
}

TEST(SplitTrace, GuardedOffInsertionChangesNoHash)
{
    TracedThread base = traceGemmThread0("");
    TracedThread dead = traceGemmThread0("dead-prologue");

    // Two extra guard-failed issues appear in the record stream...
    EXPECT_EQ(dead.trace.size(), base.trace.size() + 2);
    // ...but no section boundary, content, state, or tail hash moves.
    ASSERT_EQ(dead.sectioned.sections.size(),
              base.sectioned.sections.size());
    for (std::size_t i = 0; i < base.sectioned.sections.size(); ++i) {
        SCOPED_TRACE(i);
        const sim::TraceSection &a = base.sectioned.sections[i];
        const sim::TraceSection &b = dead.sectioned.sections[i];
        EXPECT_EQ(a.contentHash, b.contentHash);
        EXPECT_EQ(a.prefixStateHash, b.prefixStateHash);
        EXPECT_EQ(a.tailContentHash, b.tailContentHash);
    }
}

TEST(SplitTrace, StrengthReductionOnlyPerturbsItsOwnSection)
{
    TracedThread base = traceGemmThread0("");
    TracedThread edited = traceGemmThread0("strength-reduce");

    ASSERT_EQ(edited.sectioned.sections.size(),
              base.sectioned.sections.size());
    ASSERT_GT(base.sectioned.sections.size(), 1u);

    // The edit is in the prologue (section 0): its content -- and
    // therefore its tail -- must change.
    EXPECT_NE(base.sectioned.sections[0].contentHash,
              edited.sectioned.sections[0].contentHash);
    EXPECT_NE(base.sectioned.sections[0].tailContentHash,
              edited.sectioned.sections[0].tailContentHash);

    // Every later section consumed the same values from the same
    // registers, so content, prefix state and tails all survive: this
    // is what keeps downstream sections warm.
    for (std::size_t i = 1; i < base.sectioned.sections.size(); ++i) {
        SCOPED_TRACE(i);
        const sim::TraceSection &a = base.sectioned.sections[i];
        const sim::TraceSection &b = edited.sectioned.sections[i];
        EXPECT_EQ(a.contentHash, b.contentHash);
        EXPECT_EQ(a.prefixStateHash, b.prefixStateHash);
        EXPECT_EQ(a.tailContentHash, b.tailContentHash);
    }
}

TEST(SplitTrace, ReorderPerturbsDownstreamPrefixState)
{
    TracedThread base = traceGemmThread0("");
    TracedThread reordered = traceGemmThread0("reorder-params");

    ASSERT_EQ(reordered.sectioned.sections.size(),
              base.sectioned.sections.size());
    EXPECT_NE(base.sectioned.sections[0].contentHash,
              reordered.sectioned.sections[0].contentHash);
    // The (dest, value) fold is order sensitive by design, so even a
    // semantically neutral swap invalidates downstream sections.
    for (std::size_t i = 1; i < base.sectioned.sections.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_NE(base.sectioned.sections[i].prefixStateHash,
                  reordered.sectioned.sections[i].prefixStateHash);
    }
}

TEST(SplitTrace, ContentHashSurvivesCodeMotion)
{
    // The same loop assembled at two different static offsets: branch
    // targets are hashed relative to the instruction, so the shifted
    // instructions hash identically.
    const char *loop = R"(
    mov.u32 $r1, 0x00000000;
back:
    add.u32 $r1, $r1, 0x00000001;
    set.lt.u32.u32 $p0|$o127, $r1, $r2;
    @$p0.ne bra back;
    retp;
)";
    sim::Program plain = ptx::assemble("k", loop);
    sim::Program shifted =
        ptx::assemble("k", std::string("    mov.u32 $r9, 0x00000000;\n") +
                               loop);
    ASSERT_EQ(shifted.instructions().size(),
              plain.instructions().size() + 1);
    for (std::size_t i = 0; i < plain.instructions().size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(sim::instructionContentHash(
                      plain.instructions()[i],
                      static_cast<std::uint32_t>(i)),
                  sim::instructionContentHash(
                      shifted.instructions()[i + 1],
                      static_cast<std::uint32_t>(i + 1)));
    }
}

// ---------------------------------------------------------------------
// Disk format.

TEST(SectionCacheDisk, RoundTripsThroughAFreshInstance)
{
    std::string dir = freshDir("fsp-seccache-roundtrip");

    SectionCacheRecord masked;
    masked.outcome = Outcome::Masked;
    masked.staticIndex = kStaticFollowsSite;

    SectionCacheRecord sdc;
    sdc.outcome = Outcome::SDC;
    sdc.staticIndex = 23;
    sdc.hasAnatomy = true;
    sdc.anatomy.pattern = SdcPattern::SingleElement;
    sdc.anatomy.magnitude[2] = 1;

    SectionCacheRecord invalid;
    invalid.outcome = Outcome::Invalid;

    {
        SectionCache cache(dir);
        cache.store(0x1111, 1, masked);
        cache.store(0x1111, 2, sdc);
        cache.store(0x2222, 3, invalid);
        cache.flush();
        EXPECT_GT(cache.stats().bytesWritten, 0u);
        // flush() is idempotent: nothing pending the second time.
        std::uint64_t written = cache.stats().bytesWritten;
        cache.flush();
        EXPECT_EQ(cache.stats().bytesWritten, written);
    }

    SectionCache reopened(dir);
    auto got_masked = reopened.lookup(0x1111, 1);
    auto got_sdc = reopened.lookup(0x1111, 2);
    auto got_invalid = reopened.lookup(0x2222, 3);
    ASSERT_TRUE(got_masked && got_sdc && got_invalid);
    EXPECT_EQ(*got_masked, masked);
    EXPECT_EQ(*got_sdc, sdc);
    EXPECT_EQ(*got_invalid, invalid);
    EXPECT_EQ(reopened.stats().hits, 3u);
    EXPECT_GT(reopened.stats().bytesRead, 0u);

    EXPECT_FALSE(reopened.lookup(0x1111, 99).has_value());
    EXPECT_FALSE(reopened.lookup(0x3333, 1).has_value());
    EXPECT_EQ(reopened.stats().misses, 2u);
    EXPECT_EQ(reopened.stats().corruptRecords, 0u);
}

TEST(SectionCacheDisk, CorruptRecordsAreSkippedNotFatal)
{
    std::string dir = freshDir("fsp-seccache-corrupt");

    SectionCacheRecord first;
    first.outcome = Outcome::Masked;
    SectionCacheRecord second;
    second.outcome = Outcome::Other;
    second.staticIndex = 7;
    {
        SectionCache cache(dir);
        cache.store(0xabcd, 10, first);
        cache.store(0xabcd, 20, second);
        cache.flush();
    }

    // Exactly one bucket file; flip a byte inside the first record.
    std::filesystem::path file;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        file = entry.path();
    ASSERT_FALSE(file.empty());
    {
        std::fstream io(file,
                        std::ios::in | std::ios::out | std::ios::binary);
        io.seekp(4);
        char byte = 0;
        io.seekg(4);
        io.get(byte);
        byte = static_cast<char>(byte ^ 0x5a);
        io.seekp(4);
        io.put(byte);
    }

    SectionCache reopened(dir);
    // One of the two records is gone (a miss), the other survives; the
    // damage is counted but never throws.
    int survivors = 0;
    survivors += reopened.lookup(0xabcd, 10).has_value() ? 1 : 0;
    survivors += reopened.lookup(0xabcd, 20).has_value() ? 1 : 0;
    EXPECT_EQ(survivors, 1);
    EXPECT_EQ(reopened.stats().corruptRecords, 1u);

    // A truncated trailing record (torn write) is equally benign.
    std::filesystem::resize_file(
        file, std::filesystem::file_size(file) - 13);
    SectionCache truncated(dir);
    truncated.lookup(0xabcd, 10);
    truncated.lookup(0xabcd, 20);
    EXPECT_GE(truncated.stats().corruptRecords, 1u);
}

TEST(SectionCacheDisk, EntryKeySeparatesModelAndSeed)
{
    std::uint64_t site = 0x1234567890abcdefULL;
    EXPECT_NE(sectionCacheKey(site, 1, 1), sectionCacheKey(site, 2, 1));
    EXPECT_NE(sectionCacheKey(site, 1, 1), sectionCacheKey(site, 1, 2));
    EXPECT_EQ(sectionCacheKey(site, 1, 1), sectionCacheKey(site, 1, 1));
}

// ---------------------------------------------------------------------
// Engine reuse path.

TEST(SectionCacheCampaign, WarmRunIsBitIdenticalAtEveryWorkerCount)
{
    fsp::setVerboseLogging(false);
    std::string dir = freshDir("fsp-seccache-warm");

    GemmRun cold = runGemm({.variant = "", .cacheDir = dir});
    EXPECT_EQ(cold.stats.cacheHits, 0u);
    EXPECT_GT(cold.stats.cacheMisses, 0u);
    EXPECT_GT(cold.stats.cacheBytesWritten, 0u);

    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(workers);
        GemmRun warm = runGemm(
            {.variant = "", .cacheDir = dir, .workers = workers});
        EXPECT_EQ(warm.stats.cacheMisses, 0u);
        EXPECT_EQ(warm.stats.cachedSites, warm.stats.sites);
        EXPECT_EQ(warm.stats.injectedSites, 0u);
        expectSameDist(warm.result.dist, cold.result.dist);
        EXPECT_EQ(warm.result.runs, cold.result.runs);
        expectSameAnatomy(warm.result.anatomy, cold.result.anatomy);
    }
}

TEST(SectionCacheCampaign, EditMatrixHitsWhereTheHashesSayItShould)
{
    fsp::setVerboseLogging(false);
    std::string dir = freshDir("fsp-seccache-edits");
    runGemm({.variant = "", .cacheDir = dir}); // prime with the base

    struct Scenario
    {
        const char *variant;
        double minHitRatio;
        double maxHitRatio;
    };
    // The guarded-off insertion reuses everything; the strength
    // reduction re-injects only the edited first section; the reorder
    // conservatively re-injects everything.
    const Scenario scenarios[] = {
        {"dead-prologue", 1.0, 1.0},
        {"strength-reduce", 0.5, 0.99},
        {"reorder-params", 0.0, 0.0},
    };

    for (const Scenario &scenario : scenarios) {
        SCOPED_TRACE(scenario.variant);

        // Cold oracle for the edited kernel, fresh cache directory.
        std::string cold_dir =
            freshDir(std::string("fsp-seccache-cold-") +
                     scenario.variant);
        GemmRun cold = runGemm(
            {.variant = scenario.variant, .cacheDir = cold_dir});

        // Warm run against the base-primed cache.
        GemmRun warm =
            runGemm({.variant = scenario.variant, .cacheDir = dir});
        double total = static_cast<double>(warm.stats.cacheHits +
                                           warm.stats.cacheMisses);
        ASSERT_GT(total, 0.0);
        double ratio = static_cast<double>(warm.stats.cacheHits) / total;
        EXPECT_GE(ratio, scenario.minHitRatio);
        EXPECT_LE(ratio, scenario.maxHitRatio);

        // Reuse must never change the profile.
        expectSameDist(warm.result.dist, cold.result.dist);
        EXPECT_EQ(warm.result.runs, cold.result.runs);
        expectSameAnatomy(warm.result.anatomy, cold.result.anatomy);
    }
}

TEST(SectionCacheCampaign, WrongSeedAndWrongModelNeverHit)
{
    fsp::setVerboseLogging(false);
    std::string dir = freshDir("fsp-seccache-reject");
    runGemm({.variant = "", .cacheDir = dir, .seed = 1});

    GemmRun other_seed =
        runGemm({.variant = "", .cacheDir = dir, .seed = 2});
    EXPECT_EQ(other_seed.stats.cacheHits, 0u);

    GemmRun other_model = runGemm({.variant = "",
                                   .cacheDir = dir,
                                   .seed = 1,
                                   .faultModel = "multi-bit:width=2"});
    EXPECT_EQ(other_model.stats.cacheHits, 0u);

    // The same seed and model still hit after both pollution passes: a
    // shared directory is safe to mix.
    GemmRun same = runGemm({.variant = "", .cacheDir = dir, .seed = 1});
    EXPECT_EQ(same.stats.cacheMisses, 0u);
    EXPECT_EQ(same.stats.cachedSites, same.stats.sites);
}

TEST(SectionCacheCampaign, ShardedWorkersShareOneDirectory)
{
    fsp::setVerboseLogging(false);
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");

    // One canonical unsharded campaign (cold, uncached) as the oracle.
    VariantGuard guard("");
    analysis::KernelAnalysis oracle_ka(*spec, apps::Scale::Small, 42);
    pruning::PruningConfig pruning;
    pruning.seed = 1;
    pruning::PruningResult pruned = oracle_ka.prune(pruning);
    CampaignOptions plain;
    plain.workers = 2;
    plain.journalKey.seed = 1;
    CampaignResult oracle =
        oracle_ka.campaignEngine(plain).run(pruned.sites);

    const std::uint64_t model_hash =
        defaultFaultModel()->identityHash();
    const JournalKey key{"shard-suite", 1};

    for (std::uint32_t shards : {1u, 4u}) {
        SCOPED_TRACE(shards);
        std::string dir = freshDir("fsp-seccache-shards-" +
                                   std::to_string(shards));

        // Pass 0 (cold) and pass 1 (warm): each shard is an
        // independent journaled engine attached to the shared cache
        // directory, exactly as `fsp campaign --shard` processes are;
        // the folded result comes from the deterministic journal
        // merge, which re-folds in global site order.
        for (int pass = 0; pass < 2; ++pass) {
            SCOPED_TRACE(pass);
            std::string journal_base =
                freshDir("fsp-seccache-shards-" +
                         std::to_string(shards) + "-journals-" +
                         std::to_string(pass)) +
                "/c";
            ShardPlan plan = planShards(key, pruned.sites, shards);

            std::uint64_t hits = 0, misses = 0;
            std::vector<std::string> journal_paths;
            for (std::uint32_t s = 0; s < shards; ++s) {
                const ShardPlanEntry &entry = plan.shards[s];
                std::string journal_path =
                    shardJournalPath(journal_base, s, shards);
                prepareShardJournal(journal_path, entry, model_hash);
                journal_paths.push_back(journal_path);

                analysis::AnalysisConfig facade;
                facade.sectionCacheDir = dir;
                analysis::KernelAnalysis ka(*spec, apps::Scale::Small,
                                            facade, 42);
                const SectionIndex &index =
                    ka.buildSectionIndex(entry.sites);

                CampaignOptions options;
                options.workers = 2;
                options.journalPath = journal_path;
                options.resume = true;
                options.journalKey = entry.key;
                options.sectionCache = ka.sectionCache();
                options.sectionIndex = &index;
                ka.campaignEngine(options).run(entry.sites);
                const CampaignStats &stats =
                    ka.campaignEngine(options).lastStats();
                hits += stats.cacheHits;
                misses += stats.cacheMisses;
            }

            if (pass == 0) {
                EXPECT_EQ(hits, 0u);
                EXPECT_GT(misses, 0u);
            } else {
                EXPECT_EQ(misses, 0u);
                EXPECT_GT(hits, 0u);
            }

            MergeReport merged = mergeShardJournals(
                key, pruned.sites, model_hash, journal_paths);
            EXPECT_TRUE(merged.complete);
            expectSameDist(merged.result.dist, oracle.dist);
            EXPECT_EQ(merged.result.runs, oracle.runs);
            expectSameAnatomy(merged.result.anatomy, oracle.anatomy);
        }
    }
}

TEST(SectionCacheCampaign, ObserverSeesEveryHitAndMiss)
{
    fsp::setVerboseLogging(false);
    std::string dir = freshDir("fsp-seccache-observer");

    struct CacheCounter final : CampaignObserver
    {
        std::uint64_t hits = 0, misses = 0, unindexed = 0;
        void
        onCacheHit(const CacheHit &event) override
        {
            ++hits;
            EXPECT_NE(event.site, nullptr);
            EXPECT_NE(event.sectionHash, 0u);
        }
        void
        onCacheMiss(const CacheMiss &event) override
        {
            ++misses;
            if (event.sectionHash == 0)
                ++unindexed;
        }
    };

    VariantGuard guard("");
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    analysis::AnalysisConfig facade;
    facade.sectionCacheDir = dir;
    analysis::KernelAnalysis ka(*spec, apps::Scale::Small, facade, 42);
    pruning::PruningConfig pruning;
    pruning.seed = 1;
    pruning::PruningResult pruned = ka.prune(pruning);

    CacheCounter cold_counter;
    CampaignOptions options;
    options.workers = 2;
    options.journalKey.seed = 1;
    options.observer = &cold_counter;
    ka.runPrunedCampaignDetailed(pruned, options);
    CampaignStats cold = ka.campaignEngine(options).lastStats();
    EXPECT_EQ(cold_counter.hits, cold.cacheHits);
    EXPECT_EQ(cold_counter.misses, cold.cacheMisses);
    EXPECT_EQ(cold_counter.hits + cold_counter.misses, cold.sites);

    CacheCounter warm_counter;
    options.observer = &warm_counter;
    ka.runPrunedCampaignDetailed(pruned, options);
    CampaignStats warm = ka.campaignEngine(options).lastStats();
    EXPECT_EQ(warm_counter.hits, warm.cacheHits);
    EXPECT_EQ(warm_counter.misses, 0u);
    EXPECT_EQ(warm_counter.hits, warm.sites);
}

} // namespace
} // namespace fsp
