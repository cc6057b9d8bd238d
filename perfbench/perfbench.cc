/**
 * @file
 * perfbench: the repository benchmark program.  It runs one named
 * workload in this process, repeatedly, for a fixed number of seconds,
 * checks every kernel analysis it performs, and writes one JSON document
 * to stdout: the host record, per-kernel profile digests, operation
 * counts and the metric values (run.py attaches the units from
 * BENCHMARK.json and prints the final result line).
 *
 * It times only calls into the public API of each layer (KernelAnalysis
 * and the standalone executor).  The untraced run attaches nothing to
 * the library; the traced run (--trace 1) attaches a campaign observer,
 * the pruning metrics registry and an ExecMetrics sink, and reports the
 * per-layer numbers.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work-dir DIR
 */

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "analysis/cli_options.hh"
#include "apps/app.hh"
#include "bench_stats.hh"
#include "perf_counters.hh"
#include "site_timer.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace {

using namespace fsp;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using perfbench::percentile;
using perfbench::ratio;

/**
 * estimate_err_pts is the mean over this many seeds derived from the
 * workload seed: one seed's Fig. 9 error moves about 18% from seed to
 * seed (coefficient of variation over 40 seeds), the mean of twelve
 * about 5%.
 */
constexpr unsigned kAccuracySeeds = 12;
constexpr std::uint64_t kAccuracySeedStride = 1000;

/**
 * @{ Analysis seeds of the paper-scale workloads, held fixed so that the
 * workload seed (--seed) varies only the kernel inputs.  Both are the
 * median-cost choice among seeds 1-20 on the host the benchmark was
 * defined on:
 *  - GEMM/K1's pruned campaign time depends on where its single
 *    representative thread sits in the grid: pruning seeds 1-20 gave
 *    0.4 to 8.7 s (seed 1, the tool's default, is the second fastest);
 *    seed 10 is the upper median.
 *  - The three 1000-site baselines took 2.5 to 3.5 s over baseline
 *    seeds S+17 for S = 1-20, mostly through GEMM's hazard-fallback
 *    sites; S = 13 (baseline seed 30) is the upper median.
 */
constexpr std::uint64_t kPaperPruningSeed = 10;
constexpr std::uint64_t kPaperBaselineSeed = 30;
/** @} */

/**
 * Seed of the one untimed Fig. 9 sweep that gives estimate_err_pts on
 * the other workloads (every result carries every end-to-end metric):
 * the fsp tool's default.  It does not follow the workload seed, as one
 * sweep's error moves about 15% with its inputs alone; the reading is
 * the default sweep's error, exact for a given build.
 */
constexpr std::uint64_t kSweepSeed = 1;

/**
 * Timed passes per run, at least.  Every pass sets up each kernel
 * again, so a run holds several set-ups; timings are medians over
 * passes, so one slow pass (the first, cold one, or one hit by a host
 * stall) does not move them.
 */
constexpr unsigned kMinPasses = 3;

/**
 * incremental_rerun: warm halves run after each timed pass of the
 * untraced run, outside the pass.  A warm half takes about a second, so
 * with one per pass warm_rerun_s would rest on three samples a run, and
 * its spread ran wider than that of analysis_s on a busy host.
 */
constexpr unsigned kExtraWarmHalves = 2;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Process CPU time (user + system, every thread). */
double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto toSeconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return toSeconds(usage.ru_utime) + toSeconds(usage.ru_stime);
}

/** Peak resident set of the process so far, MiB. */
double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Fold a profile bit-exactly into @p hash: bucket weights and runs. */
void
hashProfile(const faults::OutcomeDist &dist, faults::JournalHasher &hash)
{
    for (faults::Outcome outcome :
         {faults::Outcome::Masked, faults::Outcome::SDC,
          faults::Outcome::Other, faults::Outcome::Invalid}) {
        hash.update(dist.weightOf(outcome));
    }
    hash.update(dist.runs());
}

std::string
hex(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** Wall seconds per layer call, summed over one pass. */
class LayerClock
{
  public:
    /** Run @p call, crediting its wall time to @p layer. */
    template <class F>
    decltype(auto)
    time(const std::string &layer, F &&call)
    {
        Credit credit{seconds_[layer], Clock::now()};
        return call();
    }

    double
    operator[](const std::string &layer) const
    {
        auto it = seconds_.find(layer);
        return it == seconds_.end() ? 0.0 : it->second;
    }

    const std::map<std::string, double> &all() const { return seconds_; }

  private:
    struct Credit
    {
        double &total;
        Clock::time_point start;
        ~Credit() { total += secondsSince(start); }
    };

    std::map<std::string, double> seconds_;
};

/** What the traced run attaches, and the counters it sums. */
struct Trace
{
    metrics::Registry registry;
    sim::ExecMetrics exec;
    perfbench::SiteTimer sites;

    std::uint64_t checkpoints = 0;
    std::uint64_t checkpointBytes = 0;
    std::uint64_t prunedSites = 0;
    faults::InjectionStats injection;
    double injectSeconds = 0.0;
    double replaySeconds = 0.0;
    double foldSeconds = 0.0;
    std::uint64_t chunks = 0;
    std::vector<std::uint64_t> perWorkerRuns;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheBytesRead = 0;
    std::uint64_t cacheBytesWritten = 0;

    void
    noteCampaign(const faults::CampaignResult &result,
                 const faults::CampaignStats &stats)
    {
        injection.merge(result.injection);
        injectSeconds += stats.injectSeconds;
        replaySeconds += stats.replaySeconds;
        foldSeconds += stats.foldSeconds;
        chunks += stats.chunks;
        if (perWorkerRuns.size() < stats.perWorkerRuns.size())
            perWorkerRuns.resize(stats.perWorkerRuns.size());
        for (std::size_t w = 0; w < stats.perWorkerRuns.size(); ++w)
            perWorkerRuns[w] += stats.perWorkerRuns[w];
        cacheHits += stats.cacheHits;
        cacheMisses += stats.cacheMisses;
        cacheBytesRead += stats.cacheBytesRead;
        cacheBytesWritten += stats.cacheBytesWritten;
    }
};

/** One kernel analysis: the benchmark's unit of work. */
struct KernelJob
{
    const apps::KernelSpec *spec = nullptr;
    apps::Scale scale = apps::Scale::Paper;
    bool prune = true;            ///< prune + weighted pruned campaign
    /** Pruning seed; unset prunes with the workload seed. */
    std::optional<std::uint64_t> pruningSeed;
    std::size_t baselineRuns = 0; ///< random-sampling baseline; 0 skips
    /** Baseline sampling seed; unset samples with the workload seed + 17. */
    std::optional<std::uint64_t> baselineSeed;
    unsigned workers = 1;
    std::string cacheDir;         ///< section cache; empty detaches
    std::string journalPath;      ///< pruned-campaign journal; empty none
};

/** The checked outcome of one KernelJob. */
struct KernelOp
{
    std::string kernel;
    std::uint64_t seed = 0;
    /** kernel@scale-seed: what the profile digest is recorded under. */
    std::string label;
    std::uint64_t digest = 0;
    std::string failure; ///< empty when every check passed
    std::optional<faults::OutcomeDist> pruned;
    std::optional<faults::OutcomeDist> baseline;
};

/** One pass of a workload. */
struct PassResult
{
    double wall = 0.0;
    double cpu = 0.0;
    /** incremental_rerun: the pass's warm half, then any extra ones. */
    std::vector<double> warmWalls;
    std::uint64_t injectedSites = 0;
    std::vector<KernelOp> ops;
    LayerClock clock;

    double
    setupSeconds() const
    {
        return clock["apps.setup"] + clock["faults.golden"] +
               clock["faults.space"];
    }
};

const apps::KernelSpec *
kernelNamed(const char *name)
{
    const apps::KernelSpec *spec = apps::findKernel(name);
    if (!spec)
        throw std::runtime_error(std::string("unknown kernel ") + name);
    return spec;
}

/** Analyse one kernel, appending the checked outcome to pass.ops. */
void
runKernel(const KernelJob &job, std::uint64_t seed, PassResult &pass,
          Trace *trace)
{
    KernelOp op;
    op.kernel = job.spec->fullName();
    op.seed = seed;
    op.label = op.kernel + "@" + apps::scaleName(job.scale) + "-" +
               std::to_string(seed);
    LayerClock &clock = pass.clock;
    try {
        analysis::AnalysisConfig config;
        config.sectionCacheDir = job.cacheDir;
        config.execMetrics = trace ? &trace->exec : nullptr;
        std::optional<analysis::KernelAnalysis> ka;
        clock.time("apps.setup", [&] {
            ka.emplace(*job.spec, job.scale, config, seed + 41);
        });
        clock.time("faults.golden", [&] { ka->injector(); });
        clock.time("faults.space", [&] { ka->space(); });
        if (trace) {
            if (const faults::CheckpointStore *store =
                    ka->injector().checkpointStore()) {
                trace->checkpoints += store->totalCheckpoints();
                trace->checkpointBytes += store->byteSize();
            }
        }

        faults::CampaignOptions options;
        options.workers = job.workers;
        options.observer = trace ? &trace->sites : nullptr;
        options.journalKey.seed = seed;
        auto noteCampaign = [&](const faults::CampaignResult &result) {
            const faults::CampaignStats &stats =
                ka->campaignEngine(options).lastStats();
            pass.injectedSites += stats.injectedSites;
            if (trace)
                trace->noteCampaign(result, stats);
        };
        auto checkRuns = [&](const faults::CampaignResult &result,
                             std::size_t expected, const char *what) {
            if (result.runs != expected && op.failure.empty())
                op.failure = std::string(what) + ": ran " +
                             std::to_string(result.runs) + " of " +
                             std::to_string(expected) + " sites";
            if ((result.injection.invalidSites > 0 ||
                 result.dist.weightOf(faults::Outcome::Invalid) > 0.0) &&
                op.failure.empty())
                op.failure = std::string(what) + ": invalid site";
        };

        faults::JournalHasher digest;
        if (job.prune) {
            pruning::PruningConfig pruning_config;
            pruning_config.seed = job.pruningSeed.value_or(seed);
            pruning::PruningResult pruned =
                clock.time("pruning.prune", [&] {
                    return ka->prune(pruning_config,
                                     trace ? &trace->registry : nullptr);
                });
            if (trace)
                trace->prunedSites += pruned.counts.afterBit;
            if (!job.cacheDir.empty()) {
                clock.time("faults.section_index",
                           [&] { ka->buildSectionIndex(pruned.sites); });
            }
            if (!job.journalPath.empty()) {
                analysis::CommonCliOptions common;
                common.seed = seed;
                common.pruning = pruning_config;
                options.journalPath = job.journalPath;
                options.journalKey = analysis::campaignJournalKey(
                    *job.spec, job.scale, common);
            }
            faults::CampaignResult result =
                clock.time("faults.campaign", [&] {
                    return ka->runPrunedCampaignDetailed(pruned, options);
                });
            noteCampaign(result);
            checkRuns(result, pruned.sites.size(), "pruned campaign");
            hashProfile(result.dist, digest);
            op.pruned = result.dist;
            options.journalPath.clear();
        }
        if (job.baselineRuns > 0) {
            faults::CampaignResult result =
                clock.time("faults.campaign", [&] {
                    return ka->runBaseline(
                        job.baselineRuns, job.baselineSeed.value_or(seed + 17),
                        options);
                });
            noteCampaign(result);
            checkRuns(result, job.baselineRuns, "baseline");
            hashProfile(result.dist, digest);
            op.baseline = result.dist;
        }
        op.digest = digest.digest();
        clock.time("analysis.teardown", [&] { ka.reset(); });
    } catch (const std::exception &error) {
        op.failure = error.what();
    }
    pass.ops.push_back(op);
}

/** Mean over {masked, SDC, other} of |pruned - baseline|, in points. */
double
estimateErrorPoints(const faults::OutcomeDist &pruned,
                    const faults::OutcomeDist &baseline)
{
    double sum = 0.0;
    for (faults::Outcome outcome : {faults::Outcome::Masked,
                                    faults::Outcome::SDC,
                                    faults::Outcome::Other}) {
        sum += std::fabs(pruned.fraction(outcome) -
                         baseline.fraction(outcome));
    }
    return 100.0 * sum / 3.0;
}

/** The Table I kernels (every registered kernel but Table VII's NN). */
std::vector<const apps::KernelSpec *>
tableOneKernels()
{
    std::vector<const apps::KernelSpec *> kernels;
    for (const apps::KernelSpec &spec : apps::allKernels()) {
        if (spec.application != "NN")
            kernels.push_back(&spec);
    }
    return kernels;
}

/**
 * A named workload: the kernel analyses of one pass.  Every kernel gets
 * @p job with its spec filled in.
 */
struct Workload
{
    const char *name;
    std::vector<const char *> kernels; ///< empty: every Table I kernel
    KernelJob job;
    /** Cold then warm half per pass, on a section cache and journals. */
    bool incremental = false;

    std::vector<const apps::KernelSpec *>
    specs() const
    {
        if (kernels.empty())
            return tableOneKernels();
        std::vector<const apps::KernelSpec *> out;
        for (const char *name : kernels)
            out.push_back(kernelNamed(name));
        return out;
    }
};

std::vector<Workload>
makeWorkloads()
{
    KernelJob pruned; // paper scale, 1 worker, no baseline
    pruned.pruningSeed = kPaperPruningSeed;
    KernelJob baseline;
    baseline.prune = false;
    baseline.baselineRuns = 1000;
    baseline.baselineSeed = kPaperBaselineSeed;
    KernelJob fig9; // prunes with each accuracy seed
    fig9.scale = apps::Scale::Small;
    fig9.baselineRuns = 3000;
    fig9.workers = 2;
    return {
        {"paper_pruned", {"GEMM/K1", "PathFinder/K1", "LUD/K46"}, pruned,
         false},
        {"paper_baseline", {"GEMM/K1", "K-Means/K2", "PathFinder/K1"},
         baseline, false},
        {"fig9_small", {}, fig9, false},
        {"incremental_rerun", {"GEMM/K1", "LUD/K46"}, pruned, true},
    };
}

const std::vector<Workload> kWorkloads = makeWorkloads();

const Workload &
fig9Workload()
{
    return kWorkloads[2];
}

/**
 * Analyse every kernel of @p workload once.  incremental_rerun's
 * analyses share the section cache in @p dir and write their journals
 * there, named after @p journalPrefix.
 */
void
analyseKernels(const Workload &workload, std::uint64_t seed,
               PassResult &pass, Trace *trace, const fs::path &dir,
               const std::string &journalPrefix)
{
    std::vector<const apps::KernelSpec *> specs = workload.specs();
    for (std::size_t k = 0; k < specs.size(); ++k) {
        KernelJob job = workload.job;
        job.spec = specs[k];
        if (workload.incremental) {
            job.cacheDir = (dir / "cache").string();
            job.journalPath =
                (dir / (journalPrefix + std::to_string(k) + ".journal"))
                    .string();
        }
        runKernel(job, seed, pass, trace);
    }
}

/**
 * incremental_rerun's warm half number @p index: every kernel again on
 * the cache the cold half filled, with fresh journals.  Returns its wall
 * time.
 */
double
warmHalf(const Workload &workload, std::uint64_t seed, PassResult &pass,
         Trace *trace, const fs::path &dir, unsigned index)
{
    auto start = Clock::now();
    analyseKernels(workload, seed, pass, trace, dir,
                   "warm" + std::to_string(index) + "-");
    return secondsSince(start);
}

/** One pass of @p workload at @p seed; @p dir is the pass's scratch. */
void
runPass(const Workload &workload, std::uint64_t seed, PassResult &pass,
        Trace *trace, const fs::path &dir)
{
    if (!workload.incremental) {
        analyseKernels(workload, seed, pass, trace, dir, "");
        return;
    }
    analyseKernels(workload, seed, pass, trace, dir, "cold-");
    pass.warmWalls.push_back(warmHalf(workload, seed, pass, trace, dir, 0));
}

/**
 * estimate_err_pts: estimateErrorPoints averaged over every kernel of
 * every Fig. 9 sweep in @p sweeps.
 */
double
meanEstimateError(const std::vector<PassResult> &sweeps)
{
    double total = 0.0;
    std::size_t pairs = 0;
    for (const PassResult &sweep : sweeps) {
        for (const KernelOp &op : sweep.ops) {
            if (op.pruned && op.baseline) {
                total += estimateErrorPoints(*op.pruned, *op.baseline);
                pairs++;
            }
        }
    }
    return pairs > 0 ? total / static_cast<double>(pairs) : 0.0;
}

/** Seed of the k-th accuracy sweep derived from workload seed @p seed. */
std::uint64_t
accuracySeed(std::uint64_t seed, unsigned k)
{
    return seed + kAccuracySeedStride * k;
}

/** Everything one invocation accumulates. */
class Run
{
  public:
    Run(const Workload &workload, const fs::path &workDir)
        : workload_(workload), work_dir_(workDir)
    {
    }

    /**
     * One pass at @p seed, timed as a whole, then (incremental_rerun
     * only) @p extraWarmHalves untraced warm halves timed on their own.
     */
    PassResult
    pass(std::uint64_t seed, Trace *trace, unsigned extraWarmHalves = 0)
    {
        fs::path dir = work_dir_ / ("pass-" + std::to_string(passes_++));
        if (workload_.incremental) {
            fs::remove_all(dir);
            fs::create_directories(dir);
        }
        PassResult result;
        double cpu_start = cpuSeconds();
        auto start = Clock::now();
        runPass(workload_, seed, result, trace, dir);
        result.wall = secondsSince(start);
        result.cpu = cpuSeconds() - cpu_start;
        check(result);
        if (workload_.incremental) {
            for (unsigned k = 1; k <= extraWarmHalves; ++k) {
                PassResult rerun;
                result.warmWalls.push_back(
                    warmHalf(workload_, seed, rerun, nullptr, dir, k));
                check(rerun);
            }
            fs::remove_all(dir);
        }
        return result;
    }

    /** The Fig. 9 sweep at kSweepSeed, run untimed. */
    PassResult
    accuracySweep()
    {
        PassResult sweep;
        runPass(fig9Workload(), kSweepSeed, sweep, nullptr, work_dir_);
        check(sweep);
        return sweep;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }

    /** The profile digest of every kernel@scale-seed analysed. */
    std::map<std::string, std::string>
    digests() const
    {
        std::map<std::string, std::string> out;
        for (const auto &[label, digest] : first_digest_)
            out[label] = hex(digest);
        return out;
    }

  private:
    /**
     * Account every operation of @p result: it fails if it threw,
     * reported an invalid site or ran a different number of sites than
     * listed (runKernel's checks), or if its profile differs from the
     * first repetition of the same kernel, scale and seed in this run.
     */
    void
    check(const PassResult &result)
    {
        for (const KernelOp &op : result.ops) {
            attempted_++;
            std::string failure = op.failure;
            if (failure.empty()) {
                auto [it, fresh] =
                    first_digest_.emplace(op.label, op.digest);
                if (!fresh && it->second != op.digest)
                    failure = "profile differs from the first repetition";
            }
            if (!failure.empty()) {
                failed_++;
                if (failures_.size() < 8)
                    failures_.push_back(op.kernel + " (seed " +
                                        std::to_string(op.seed) +
                                        "): " + failure);
            }
        }
    }

    const Workload &workload_;
    fs::path work_dir_;
    unsigned passes_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
    std::map<std::string, std::uint64_t> first_digest_;
};

using Metrics = std::map<std::string, double>;

/** Median of @p field over @p passes (never empty). */
double
medianOf(const std::vector<PassResult> &passes,
         const std::function<double(const PassResult &)> &field)
{
    std::vector<double> values;
    for (const PassResult &pass : passes)
        values.push_back(field(pass));
    return fsp::percentile(values, 50.0);
}

/** The per-layer numbers of one traced pass. */
Metrics
layerMetrics(const PassResult &pass, Trace &trace)
{
    Metrics m;
    const LayerClock &clock = pass.clock;
    m["apps.setup_s"] = clock["apps.setup"];
    m["faults.golden_s"] = clock["faults.golden"];
    m["faults.space_s"] = clock["faults.space"];
    m["faults.checkpoints"] = static_cast<double>(trace.checkpoints);
    m["faults.checkpoint_mb"] =
        static_cast<double>(trace.checkpointBytes) / (1024.0 * 1024.0);
    m["sim.setup_instrs"] = static_cast<double>(trace.exec.dynInstrs);

    m["pruning.prune_s"] = clock["pruning.prune"];
    metrics::Registry &registry = trace.registry;
    const std::pair<const char *, const char *> stages[] = {
        {"thread", "thread"},
        {"profile", "profiling"},
        {"instruction", "instruction"},
        {"loop", "loop"},
        {"bit", "bit"}};
    for (const auto &[name, label] : stages) {
        metrics::GaugeId id = registry.gauge(
            "fsp_pruning_stage_seconds",
            "cumulative wall time per pruning stage",
            std::string("stage=\"") + label + "\"");
        m[std::string("pruning.") + name + "_s"] = registry.gaugeValue(id);
    }
    m["pruning.sites"] = static_cast<double>(trace.prunedSites);

    m["faults.campaign_s"] = clock["faults.campaign"];
    m["faults.inject_s"] = trace.injectSeconds;
    m["faults.replay_s"] = trace.replaySeconds;
    m["faults.fold_s"] = trace.foldSeconds;

    const faults::InjectionStats &inj = trace.injection;
    double injections = static_cast<double>(inj.injections);
    m["faults.injections"] = injections;
    m["faults.sliced_runs"] = static_cast<double>(inj.slicedRuns);
    m["faults.fullgrid_runs"] = static_cast<double>(inj.fullGridRuns);
    m["faults.hazard_fallbacks"] = static_cast<double>(inj.hazardFallbacks);
    m["faults.hazard_ratio"] =
        ratio(static_cast<double>(inj.hazardFallbacks),
              static_cast<double>(inj.slicedRuns + inj.hazardFallbacks))
            .value;
    m["faults.ctas_per_site"] =
        ratio(static_cast<double>(inj.executedCtas), injections).value;
    m["faults.restored_kb_per_site"] =
        ratio(static_cast<double>(inj.restoredBytes) / 1024.0, injections)
            .value;
    m["faults.checkpoint_restore_ratio"] =
        ratio(static_cast<double>(inj.checkpointRestores), injections)
            .value;
    m["faults.skipped_instrs_per_site"] =
        ratio(static_cast<double>(inj.skippedDynInstrs), injections).value;

    std::vector<double> sites = trace.sites.siteSeconds();
    perfbench::Percentile site_p50 = percentile(sites, 0.50);
    m["faults.site_p50_ms"] = 1e3 * site_p50.value;
    m["faults.site_p99_ms"] = 1e3 * percentile(sites, 0.99).value;
    m["faults.site_max_ms"] = 1e3 * percentile(sites, 1.0).value;
    m["faults.site_samples"] = static_cast<double>(site_p50.samples);
    std::vector<double> hazard = trace.sites.hazardSiteSeconds();
    perfbench::Percentile hazard_p50 = percentile(hazard, 0.50);
    m["faults.hazard_site_p50_ms"] = 1e3 * hazard_p50.value;
    m["faults.hazard_site_p99_ms"] = 1e3 * percentile(hazard, 0.99).value;
    m["faults.hazard_site_samples"] =
        static_cast<double>(hazard_p50.samples);

    double max_runs = 0.0, sum_runs = 0.0;
    for (std::uint64_t runs : trace.perWorkerRuns) {
        max_runs = std::max(max_runs, static_cast<double>(runs));
        sum_runs += static_cast<double>(runs);
    }
    double workers = static_cast<double>(trace.perWorkerRuns.size());
    m["faults.worker_imbalance"] =
        ratio(max_runs, workers > 0 ? sum_runs / workers : 0.0).value;
    m["faults.chunks"] = static_cast<double>(trace.chunks);

    m["faults.section_index_s"] = clock["faults.section_index"];
    perfbench::Ratio hits =
        ratio(static_cast<double>(trace.cacheHits),
              static_cast<double>(trace.cacheHits + trace.cacheMisses));
    m["faults.cache_hit_ratio"] = hits.value;
    m["faults.cache_lookups"] = hits.base;
    m["faults.cache_read_kb"] =
        static_cast<double>(trace.cacheBytesRead) / 1024.0;
    m["faults.cache_write_kb"] =
        static_cast<double>(trace.cacheBytesWritten) / 1024.0;
    m["faults.journal_commits"] =
        static_cast<double>(trace.sites.journalCommits());
    m["faults.journal_kb"] =
        static_cast<double>(trace.sites.journalBytes()) / 1024.0;

    m["analysis.teardown_s"] = clock["analysis.teardown"];
    double unattributed =
        perfbench::unattributedSeconds(pass.wall, clock.all());
    m["unattributed_s"] = unattributed;
    m["attributed_pct"] =
        100.0 * ratio(pass.wall - unattributed, pass.wall).value;
    return m;
}

/**
 * Host nanoseconds per simulated instruction: fault-free runs of a
 * standalone executor on a copy of each kernel's pristine image, at
 * least 3 runs and 50 ms per kernel.  When hardware counters open, the
 * same runs also give cycles and misses per instruction (@p counters).
 */
double
nsPerInstruction(const std::vector<const apps::KernelSpec *> &kernels,
                 apps::Scale scale, std::uint64_t seed,
                 std::map<std::string, double> &counters)
{
    double seconds = 0.0;
    double instrs = 0.0;
    bench::PerfCounters perf;
    for (const apps::KernelSpec *spec : kernels) {
        apps::KernelSetup setup = spec->setup(scale, seed + 41);
        sim::Executor executor(setup.program, setup.launch);
        double kernel_seconds = 0.0;
        for (unsigned runs = 0; runs < 3 || kernel_seconds < 0.05; ++runs) {
            sim::GlobalMemory memory = setup.memory;
            auto start = Clock::now();
            perf.start();
            sim::RunResult result = executor.run(memory);
            perf.stop();
            kernel_seconds += secondsSince(start);
            instrs += static_cast<double>(result.totalDynInstrs);
        }
        seconds += kernel_seconds;
    }
    if (perf.available() && instrs > 0) {
        counters["sim.cycles_per_instr"] =
            static_cast<double>(perf.total().cycles) / instrs;
        counters["sim.cache_misses_per_instr"] =
            static_cast<double>(perf.total().cacheMisses) / instrs;
        counters["sim.branch_misses_per_instr"] =
            static_cast<double>(perf.total().branchMisses) / instrs;
    }
    return instrs > 0 ? 1e9 * seconds / instrs : 0.0;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        std::string model(reinterpret_cast<const char *>(regs),
                          sizeof(regs));
        model = model.c_str();
        auto first = model.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : model.substr(first);
    }
#endif
    return "unknown";
}

/** The host record: what a reading depends on beyond the code. */
void
writeHostRecord(JsonWriter &json, bool countersOpen)
{
    utsname uts{};
    uname(&uts);
    const char *engine = std::getenv("FSP_EXEC_ENGINE");
    auto sysconfValue = [](int name) {
        long value = sysconf(name);
        return static_cast<std::uint64_t>(value > 0 ? value : 0);
    };
    json.beginObject("host");
    json.field("cpu_model", cpuModel());
    json.field("nproc", sysconfValue(_SC_NPROCESSORS_ONLN));
    json.field("l1d_bytes", sysconfValue(_SC_LEVEL1_DCACHE_SIZE));
    json.field("l2_bytes", sysconfValue(_SC_LEVEL2_CACHE_SIZE));
    json.field("l3_bytes", sysconfValue(_SC_LEVEL3_CACHE_SIZE));
    json.field("kernel", std::string(uts.sysname) + " " + uts.release +
                             " " + uts.machine);
#if defined(__clang__)
    json.field("compiler", std::string("clang ") + __VERSION__);
#else
    json.field("compiler", std::string("gcc ") + __VERSION__);
#endif
    json.field("build_type", FSP_BENCH_BUILD_TYPE);
    json.field("cxx_flags", FSP_BENCH_CXX_FLAGS);
    json.field("perf_counters_open", countersOpen);
    json.field("FSP_EXEC_ENGINE", engine ? engine : "unset");
    json.endObject();
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".bench_build/work";
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (key == "--trace") {
            args.trace = value == "1";
        } else if (key == "--work-dir") {
            args.workDir = value;
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerboseLogging(false);
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: perfbench --workload NAME --seed N --seconds S"
                     " --trace 0|1 [--work-dir DIR]\n";
        return 2;
    }
    const Workload *workload = nullptr;
    for (const Workload &candidate : kWorkloads) {
        if (args.workload == candidate.name)
            workload = &candidate;
    }
    if (!workload) {
        std::cerr << "perfbench: unknown workload " << args.workload << "\n";
        return 2;
    }

    fs::path work_dir =
        fs::path(args.workDir) / (args.workload + "-" +
                                  std::to_string(::getpid()));
    Run run(*workload, work_dir);
    const bool fig9 = workload == &fig9Workload();
    Metrics metrics;
    std::map<std::string, double> counters;
    std::vector<double> pass_walls; ///< every pass, in run order
    auto start = Clock::now();
    auto timeLeft = [&] { return secondsSince(start) < args.seconds; };

    if (!args.trace) {
        // Timed passes; fig9_small cycles through the accuracy seeds so
        // its own passes also give estimate_err_pts.
        // The first pass sets the peak an fsp process would see; later
        // passes only add allocator reuse effects that vary with how
        // many passes fit.
        std::vector<PassResult> passes;
        double peak_rss = 0.0;
        unsigned min_passes = fig9 ? kAccuracySeeds : kMinPasses;
        while (passes.size() < min_passes || timeLeft()) {
            unsigned k = static_cast<unsigned>(passes.size()) % kAccuracySeeds;
            passes.push_back(
                run.pass(fig9 ? accuracySeed(args.seed, k) : args.seed,
                         nullptr, kExtraWarmHalves));
            if (passes.size() == 1)
                peak_rss = peakRssMb();
        }
        auto wall = [](const PassResult &p) { return p.wall; };
        metrics["analysis_s"] = medianOf(passes, wall);
        metrics["setup_s"] = medianOf(
            passes, [](const PassResult &p) { return p.setupSeconds(); });
        metrics["cpu_s"] =
            medianOf(passes, [](const PassResult &p) { return p.cpu; });
        metrics["peak_rss_mb"] = peak_rss;
        metrics["sites_per_s"] =
            medianOf(passes, [](const PassResult &p) {
                return ratio(static_cast<double>(p.injectedSites),
                             p.clock["faults.campaign"])
                    .value;
            });
        // Without a section cache a rerun repeats the whole pass.
        std::vector<double> warm_walls;
        for (const PassResult &p : passes)
            warm_walls.insert(warm_walls.end(), p.warmWalls.begin(),
                              p.warmWalls.end());
        metrics["warm_rerun_s"] = workload->incremental
                                      ? fsp::percentile(warm_walls, 50.0)
                                      : metrics["analysis_s"];
        if (fig9) {
            std::vector<PassResult> sweeps(passes.begin(),
                                           passes.begin() + kAccuracySeeds);
            metrics["estimate_err_pts"] = meanEstimateError(sweeps);
        } else {
            metrics["estimate_err_pts"] =
                meanEstimateError({run.accuracySweep()});
        }
        for (const PassResult &p : passes)
            pass_walls.push_back(p.wall);
    } else {
        // Alternate untraced and traced passes so host drift hits both.
        std::vector<PassResult> plain;
        std::vector<Metrics> traced;
        std::vector<double> traced_wall;
        while (plain.empty() || traced.empty() || timeLeft()) {
            plain.push_back(run.pass(args.seed, nullptr));
            Trace trace;
            PassResult pass = run.pass(args.seed, &trace);
            traced.push_back(layerMetrics(pass, trace));
            traced_wall.push_back(pass.wall);
        }
        for (const auto &[name, value] : traced.front()) {
            std::vector<double> values;
            for (const Metrics &m : traced)
                values.push_back(m.at(name));
            metrics[name] = fsp::percentile(values, 50.0);
        }
        double plain_wall = medianOf(
            plain, [](const PassResult &p) { return p.wall; });
        metrics["trace_overhead_pct"] =
            100.0 * (fsp::percentile(traced_wall, 50.0) / plain_wall - 1.0);
        metrics["sim.ns_per_instr"] = nsPerInstruction(
            workload->specs(), workload->job.scale, args.seed, counters);
        for (std::size_t i = 0; i < plain.size(); ++i) {
            pass_walls.push_back(plain[i].wall);
            pass_walls.push_back(traced_wall[i]);
        }
    }
    std::error_code ignored;
    fs::remove_all(work_dir, ignored);

    bench::PerfCounters probe;
    JsonWriter json(std::cout);
    json.beginObject();
    json.field("workload", args.workload);
    json.field("seed", args.seed);
    json.field("trace", static_cast<unsigned>(args.trace));
    json.beginArray("pass_wall_s");
    for (double wall : pass_walls)
        json.value(wall);
    json.endArray();
    writeHostRecord(json, probe.available());
    json.beginObject("digests");
    for (const auto &[kernel, digest] : run.digests())
        json.field(kernel, digest);
    json.endObject();
    json.beginArray("failures");
    for (const std::string &failure : run.failures())
        json.value(failure);
    json.endArray();
    json.beginObject("counters");
    for (const auto &[name, value] : counters)
        json.field(name, value);
    json.endObject();
    json.field("attempted", run.attempted());
    json.field("failed", run.failed());
    json.beginObject("metrics");
    for (const auto &[name, value] : metrics)
        json.field(name, value);
    json.endObject();
    json.endObject();
    return 0;
}
