/**
 * @file
 * `fsp` -- the command-line front end to the library.
 *
 * Subcommands are registered in a table-driven CommandRegistry; the
 * top-level --help is generated from that table, and each command
 * parses its own OptionTable.  The analysis commands accept the shared
 * tool option set (analysis/cli_options.hh); run `fsp <command> --help`
 * for the generated list.
 *
 * `fsp campaign ... --journal p.fspj` makes the pruned campaign
 * durable: re-running with `--resume` skips already-journaled sites
 * and still produces a bit-identical profile.  `fsp campaign ...
 * --shard I/N --journal BASE` runs one of N shards of the same
 * campaign into its own journal (re-running resumes it), and `fsp
 * merge ... --journal BASE --shards N` folds the N shard journals into
 * the single-process profile.  `fsp protect` plans a partial thread
 * protection scheme under an overhead budget and verifies the achieved
 * SDC reduction with a protected re-run.
 */

#include <charconv>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "analysis/cli_options.hh"
#include "analysis/observability.hh"
#include "analysis/protection_planner.hh"
#include "analysis/report.hh"
#include "apps/app.hh"
#include "faults/journal_merge.hh"
#include "faults/shard_plan.hh"
#include "pruning/loops.hh"
#include "sim/disasm.hh"
#include "sim/protection.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/table.hh"

#include "command_registry.hh"

namespace {

using namespace fsp;

/** Kernel-command argument bundle (positional kernel + shared flags). */
struct KernelOptions
{
    std::string kernel;
    analysis::CommonCliOptions common;
};

/**
 * Parse a kernel command's arguments: positional kernel, the shared
 * option set, plus any command-specific options @p extend registers.
 * Returns 0 on success, -1 when --help was printed, 2 on a parse
 * error.
 */
int
parseKernelCommand(const std::string &usage, int argc, char **argv,
                   KernelOptions &opts,
                   const std::function<void(OptionTable &)> &extend = {})
{
    OptionTable table;
    table.setUsage(usage);
    table.positional("kernel", "kernel name, e.g. GEMM/K1 (`fsp list`)",
                     [&opts](const std::string &arg) {
                         if (!opts.kernel.empty())
                             return false;
                         opts.kernel = arg;
                         return true;
                     });
    analysis::addCommonOptions(table, opts.common);
    if (extend)
        extend(table);
    switch (table.parse(argc, argv, 2, std::cerr)) {
      case OptionTable::Parse::Ok:
        break;
      case OptionTable::Parse::Help:
        return -1;
      case OptionTable::Parse::Error:
        return 2;
    }
    if (!analysis::finalizeCommonOptions(opts.common))
        return 2;
    return 0;
}

const apps::KernelSpec *
requireKernel(const KernelOptions &opts)
{
    if (opts.kernel.empty()) {
        std::cerr << "this command needs a kernel (try `fsp list`)\n";
        return nullptr;
    }
    const apps::KernelSpec *spec = apps::findKernel(opts.kernel);
    if (spec == nullptr)
        std::cerr << "unknown kernel '" << opts.kernel << "'\n";
    return spec;
}

/** The facade configuration the shared campaign flags describe. */
analysis::AnalysisConfig
analysisConfigFor(const analysis::CommonCliOptions &common,
                  analysis::Observability &obs)
{
    analysis::AnalysisConfig config;
    config.engine = common.engine;
    config.sectionCacheDir = common.cacheDir;
    config.execMetrics = &obs.exec;
    return config;
}

/**
 * One kernel's pruned campaign and its identity, set up the one way
 * every campaign command sets it up: facade from the shared flags,
 * pruning pipeline, journal key, fault-model hash.  `fsp campaign`
 * (whole or one shard) and `fsp merge` both derive identity here, so
 * shard journals, their merge and a single-process run agree by
 * construction.
 */
struct PrunedCampaign
{
    PrunedCampaign(const apps::KernelSpec &spec,
                   const analysis::CommonCliOptions &common)
        : obs(common.progressEvery),
          ka(spec, common.scale, analysisConfigFor(common, obs),
             common.seed + 41),
          pruned(ka.prune(common.pruning, &obs.registry)),
          key(analysis::campaignJournalKey(spec, common.scale, common)),
          modelHash(common.campaign.faultModel
                        ? common.campaign.faultModel->identityHash()
                        : faults::defaultFaultModel()->identityHash())
    {
    }

    analysis::Observability obs;
    analysis::KernelAnalysis ka;
    pruning::PruningResult pruned;
    faults::JournalKey key;
    std::uint64_t modelHash;
};

/** Most shards one campaign may be split into. */
constexpr std::uint32_t kMaxShards = 1u << 16;

/** `--shard I/N`: run shard I (0-based) of an N-way split. */
struct ShardSelection
{
    std::uint32_t index = 0;
    std::uint32_t count = 0; ///< 0: not sharded

    /** Parse "I/N" with 0 <= I < N <= kMaxShards; false otherwise. */
    bool
    parse(const std::string &text)
    {
        const char *end = text.data() + text.size();
        std::uint32_t i = 0, n = 0;
        auto [slash, ec] = std::from_chars(text.data(), end, i);
        if (ec != std::errc() || slash == end || *slash != '/')
            return false;
        auto [rest, ec2] = std::from_chars(slash + 1, end, n);
        if (ec2 != std::errc() || rest != end || i >= n ||
            n > kMaxShards)
            return false;
        index = i;
        count = n;
        return true;
    }
};

/** Honour --metrics-out: export the snapshot; false on I/O failure. */
bool
exportMetrics(const analysis::Observability &obs,
              const std::string &path)
{
    if (path.empty())
        return true;
    if (!obs.writePrometheusFile(path)) {
        std::cerr << "cannot write metrics snapshot to '" << path
                  << "'\n";
        return false;
    }
    return true;
}

int
cmdList(int, char **)
{
    TextTable table({"Kernel", "Suite", "Name"});
    for (const auto &spec : apps::allKernels())
        table.addRow({spec.fullName(), spec.suite, spec.kernelName});
    table.print(std::cout);
    return 0;
}

int
cmdModels(int, char **)
{
    TextTable table({"Model", "Description"});
    for (const std::string &name : faults::builtinFaultModels())
        table.addRow({name,
                      std::string(faults::faultModelDescription(name))});
    table.print(std::cout);
    std::cout << "\nselect with --fault-model name[:key=value,...], "
                 "e.g. --fault-model multi-bit:width=3\n";
    return 0;
}

int
cmdProfile(int argc, char **argv)
{
    KernelOptions opts;
    if (int rc = parseKernelCommand("fsp profile <App/Kx> [options]",
                                    argc, argv, opts))
        return rc < 0 ? 0 : rc;
    const apps::KernelSpec *spec = requireKernel(opts);
    if (!spec)
        return 1;
    const auto &common = opts.common;
    analysis::KernelAnalysis ka(*spec, common.scale, common.seed + 41);
    const auto &space = ka.space();
    if (common.json) {
        analysis::CampaignReport report;
        report.spec = spec;
        report.scale = common.scale;
        report.seed = common.seed;
        report.space = &space;
        analysis::writeCampaignReport(std::cout, report);
        return 0;
    }
    std::cout << spec->fullName() << " @ "
              << apps::scaleName(common.scale) << "\n"
              << "  threads:      " << space.threadCount() << "\n"
              << "  dyn instrs:   " << fmtCount(space.totalDynInstrs())
              << "\n"
              << "  fault sites:  " << fmtCount(space.totalSites())
              << "  (" << fmtScientific(
                     static_cast<double>(space.totalSites()))
              << ")\n";
    return 0;
}

int
cmdGroups(int argc, char **argv)
{
    KernelOptions opts;
    if (int rc = parseKernelCommand("fsp groups <App/Kx> [options]",
                                    argc, argv, opts))
        return rc < 0 ? 0 : rc;
    const apps::KernelSpec *spec = requireKernel(opts);
    if (!spec)
        return 1;
    const auto &common = opts.common;
    analysis::KernelAnalysis ka(*spec, common.scale, common.seed + 41);
    Prng prng(common.seed);
    auto grouping = pruning::pruneThreads(
        ka.space(), ka.executor().config().block.count(), prng,
        common.pruning.thread.repsPerGroup);

    TextTable table({"CTA group", "avg iCnt", "#CTAs", "thread group",
                     "iCnt", "#threads", "representative(s)"});
    for (std::size_t g = 0; g < grouping.ctaGroups.size(); ++g) {
        const auto &cg = grouping.ctaGroups[g];
        bool first = true;
        for (const auto &tg : cg.threadGroups) {
            std::string reps;
            for (std::uint64_t rep : tg.representatives) {
                if (!reps.empty())
                    reps += ", ";
                reps += std::to_string(rep);
            }
            table.addRow({first ? "C-" + std::to_string(g + 1) : "",
                          first ? fmtFixed(cg.avgICnt, 1) : "",
                          first ? std::to_string(cg.ctas.size()) : "",
                          "T-" + std::to_string(tg.iCnt),
                          std::to_string(tg.iCnt),
                          std::to_string(tg.threads.size()), reps});
            first = false;
        }
        table.addSeparator();
    }
    table.print(std::cout);
    return 0;
}

int
cmdDisasm(int argc, char **argv)
{
    KernelOptions opts;
    if (int rc = parseKernelCommand("fsp disasm <App/Kx> [options]",
                                    argc, argv, opts))
        return rc < 0 ? 0 : rc;
    const apps::KernelSpec *spec = requireKernel(opts);
    if (!spec)
        return 1;
    apps::KernelSetup setup =
        spec->setup(opts.common.scale, opts.common.seed + 41);
    std::cout << "// " << spec->fullName() << " (" << spec->kernelName
              << "), " << setup.program.size() << " instructions\n"
              << sim::disassembleProgram(setup.program);
    return 0;
}

int
cmdLoops(int argc, char **argv)
{
    KernelOptions opts;
    if (int rc = parseKernelCommand("fsp loops <App/Kx> [options]",
                                    argc, argv, opts))
        return rc < 0 ? 0 : rc;
    const apps::KernelSpec *spec = requireKernel(opts);
    if (!spec)
        return 1;
    const auto &common = opts.common;
    analysis::KernelAnalysis ka(*spec, common.scale, common.seed + 41);
    Prng prng(common.seed);
    auto grouping = pruning::pruneThreads(
        ka.space(), ka.executor().config().block.count(), prng);
    auto plans = pruning::buildThreadPlans(ka.executor(),
                                           ka.setup().memory, grouping);
    const pruning::ThreadPlan *longest = &plans.front();
    for (const auto &plan : plans) {
        if (plan.trace.size() > longest->trace.size())
            longest = &plan;
    }
    auto loops = pruning::detectLoops(longest->trace, ka.program());
    auto stats = pruning::analyzeLoops(longest->trace, ka.program());
    std::cout << spec->fullName() << ": thread " << longest->thread
              << " (iCnt " << longest->trace.size() << ")\n"
              << "  loops:              " << loops.size() << "\n"
              << "  total iterations:   " << stats.loopIterations << "\n"
              << "  % instrs in loops:  "
              << fmtPercent(stats.loopInstrFraction(), 2) << "\n";
    for (const auto &loop : loops) {
        std::cout << "  loop @" << loop.headerStatic << ".."
                  << loop.branchStatic << ": "
                  << loop.iterations.size() << " iterations, "
                  << loop.dynInstrs() << " dyn instrs\n";
    }
    return 0;
}

int
cmdPrune(int argc, char **argv)
{
    KernelOptions opts;
    if (int rc = parseKernelCommand("fsp prune <App/Kx> [options]",
                                    argc, argv, opts))
        return rc < 0 ? 0 : rc;
    const apps::KernelSpec *spec = requireKernel(opts);
    if (!spec)
        return 1;
    const auto &common = opts.common;
    PrunedCampaign campaign(*spec, common);
    const auto &pruned = campaign.pruned;
    campaign.obs.finalize();
    if (!exportMetrics(campaign.obs, common.metricsOut))
        return 1;
    const auto &c = pruned.counts;
    if (common.json) {
        analysis::CampaignReport report;
        report.spec = spec;
        report.scale = common.scale;
        report.seed = common.seed;
        report.stageCounts = &pruned.counts;
        report.obs = &campaign.obs;
        report.extra = [&pruned](JsonWriter &json) {
            json.field("representatives",
                       static_cast<std::uint64_t>(
                           pruned.grouping.representativeCount()));
            json.field("representedWeight",
                       pruned.totalRepresentedWeight());
        };
        analysis::writeCampaignReport(std::cout, report);
        return 0;
    }
    std::cout << spec->fullName() << " progressive pruning:\n"
              << "  exhaustive:         " << fmtCount(c.exhaustive)
              << "\n"
              << "  + thread-wise:      " << fmtCount(c.afterThread)
              << "  (" << pruned.grouping.representativeCount()
              << " representatives)\n"
              << "  + instruction-wise: " << fmtCount(c.afterInstruction)
              << "\n"
              << "  + loop-wise:        " << fmtCount(c.afterLoop) << "\n"
              << "  + bit-wise:         " << fmtCount(c.afterBit) << "\n"
              << "  represented weight: "
              << fmtFixed(pruned.totalRepresentedWeight(), 1) << "\n";
    return 0;
}

/**
 * `fsp campaign --shard I/N`: run shard I of the pruned campaign into
 * its own journal, resuming whatever an earlier run of the same
 * command committed there.  The shard is a pruned result whose sites
 * are the shard's sub-list and whose assumed-masked weight is left for
 * `fsp merge` to fold, so the facade runs it like any pruned campaign
 * (section cache included).  No baseline runs.
 */
int
runCampaignShard(PrunedCampaign &campaign,
                 const analysis::CommonCliOptions &common,
                 const ShardSelection &shard)
{
    faults::ShardPlan plan = faults::planShards(
        campaign.key, campaign.pruned.sites, shard.count);
    faults::ShardPlanEntry &entry = plan.shards[shard.index];
    const std::string path = faults::shardJournalPath(
        common.journalPath, shard.index, shard.count);

    faults::CampaignOptions options = common.campaign;
    options.observer = campaign.obs.observer();
    options.journalPath = path;
    options.resume = true;
    options.journalKey = entry.key;
    try {
        faults::prepareShardJournal(path, entry, campaign.modelHash);
        pruning::PruningResult slice;
        slice.sites = std::move(entry.sites);
        campaign.ka.runPrunedCampaignDetailed(slice, options);
    } catch (const faults::JournalError &error) {
        std::cerr << "journal error: " << error.what() << "\n";
        return 1;
    }
    const faults::CampaignStats stats =
        campaign.ka.campaignEngine(options).lastStats();
    campaign.obs.finalize();
    if (!exportMetrics(campaign.obs, common.metricsOut))
        return 1;

    if (common.json) {
        JsonWriter json(std::cout);
        json.beginObject();
        json.field("kernel", campaign.ka.spec().fullName());
        json.field("shard", shard.index);
        json.field("shards", shard.count);
        json.field("sites", stats.sites);
        json.field("injectedSites", stats.injectedSites);
        json.field("replayedSites", stats.replayedSites);
        json.field("journal", path);
        json.endObject();
        return 0;
    }
    std::cout << campaign.ka.spec().fullName() << " shard " << shard.index
              << "/" << shard.count << ": " << stats.sites
              << " sites (" << stats.injectedSites << " injected, "
              << stats.replayedSites << " from the journal) -> " << path
              << "\n";
    return 0;
}

int
cmdCampaign(int argc, char **argv)
{
    KernelOptions opts;
    ShardSelection shard;
    int rc = parseKernelCommand(
        "fsp campaign <App/Kx> [--shard I/N --journal BASE] [options]",
        argc, argv, opts, [&shard](OptionTable &table) {
            table.option(
                "--shard", "I/N",
                "run only shard I (0-based) of N into the shard\n"
                "journal BASE.shard<I>of<N>.fspj (needs --journal\n"
                "BASE; no baseline); re-running resumes it, and\n"
                "`fsp merge` folds the N journals",
                [&shard](const std::string &arg) {
                    return shard.parse(arg);
                });
        });
    if (rc)
        return rc < 0 ? 0 : rc;
    const auto &common = opts.common;
    if (shard.count != 0 && common.journalPath.empty()) {
        std::cerr << "--shard needs --journal <base path>\n";
        return 2;
    }
    const apps::KernelSpec *spec = requireKernel(opts);
    if (!spec)
        return 1;
    PrunedCampaign campaign(*spec, common);
    if (shard.count != 0)
        return runCampaignShard(campaign, common, shard);

    analysis::Observability &obs = campaign.obs;
    analysis::KernelAnalysis &ka = campaign.ka;
    if (!common.json) {
        std::cout << spec->fullName() << "\n  engine: "
                  << ka.injector().slicingDescription() << ", "
                  << ka.injector().checkpointDescription() << "\n"
                  << "  fault model: "
                  << common.campaign.faultModelIdentity() << "\n";
    }

    // The journal (when requested) records the *pruned* campaign; its
    // header hash binds the weighted site list, kernel/pruning config
    // and seed, so only that campaign may write it.
    faults::CampaignOptions pruned_options = common.campaign;
    pruned_options.observer = obs.observer();
    if (!pruned_options.journalPath.empty())
        pruned_options.journalKey = campaign.key;
    faults::CampaignResult estimated;
    try {
        estimated =
            ka.runPrunedCampaignDetailed(campaign.pruned, pruned_options);
    } catch (const faults::JournalError &error) {
        std::cerr << "journal error: " << error.what() << "\n";
        return 1;
    }
    const faults::OutcomeDist &estimate = estimated.dist;
    // Copy the stats now: the journal-less baseline below configures a
    // different engine, which evicts this one from the facade's cache.
    faults::CampaignStats stats =
        ka.campaignEngine(pruned_options).lastStats();

    faults::CampaignOptions baseline_options = common.campaign;
    baseline_options.observer = obs.observer();
    baseline_options.journalPath.clear();
    baseline_options.resume = false;
    faults::CampaignResult baseline;
    if (common.baseline > 0)
        baseline = ka.runBaseline(common.baseline, common.seed + 17,
                                  baseline_options);

    estimated.anatomy.exportMetrics(obs.registry);
    obs.finalize();
    if (!exportMetrics(obs, common.metricsOut))
        return 1;

    if (common.json) {
        analysis::CampaignReport report;
        report.spec = spec;
        report.scale = common.scale;
        report.seed = common.seed;
        report.analysis = &ka;
        report.faultModel = common.campaign.faultModelIdentity();
        report.estimate = &estimated;
        report.baseline = common.baseline > 0 ? &baseline : nullptr;
        report.stats = &stats;
        report.obs = &obs;
        analysis::writeCampaignReport(std::cout, report);
        return 0;
    }

    std::cout << "  pruned estimate (" << estimate.runs()
              << " runs): " << estimate.summary() << "\n";
    if (estimated.anatomy.sdcRuns() > 0)
        std::cout << "  " << estimated.anatomy.summary() << "\n";
    if (common.baseline > 0) {
        std::cout << "  random baseline (" << baseline.runs
                  << " runs): " << baseline.dist.summary() << "\n";
    }
    std::cout << "  throughput: " << stats.summary() << "\n"
              << "  injection:  " << stats.injection.summary() << "\n";
    return 0;
}

int
cmdProtect(int argc, char **argv)
{
    KernelOptions opts;
    analysis::ProtectionPlannerConfig planner_config;
    bool no_verify = false;
    int rc = parseKernelCommand(
        "fsp protect <App/Kx> [--budget F] [--scheme NAME] [options]",
        argc, argv, opts, [&](OptionTable &table) {
            table.option(
                "--budget", "F",
                "overhead budget as a fraction of the kernel's total "
                "dynamic instructions (default 0.25)",
                [&planner_config](const std::string &arg) {
                    char *end = nullptr;
                    double value = std::strtod(arg.c_str(), &end);
                    if (end == arg.c_str() || *end != '\0' ||
                        value < 0.0)
                        return false;
                    planner_config.budget = value;
                    return true;
                });
            table.option(
                "--scheme", "NAME",
                "protection scheme: dup (duplicate-and-compare) | "
                "recompute (default dup)",
                [&planner_config](const std::string &arg) {
                    if (arg == "dup" || arg == "duplicate-compare") {
                        planner_config.scheme =
                            sim::ProtectionScheme::DuplicateCompare;
                        return true;
                    }
                    if (arg == "recompute") {
                        planner_config.scheme =
                            sim::ProtectionScheme::Recompute;
                        return true;
                    }
                    return false;
                });
            table.flag("--no-verify",
                       "skip the protected verification campaign "
                       "(report modeled numbers only)",
                       no_verify);
        });
    if (rc)
        return rc < 0 ? 0 : rc;
    const apps::KernelSpec *spec = requireKernel(opts);
    if (!spec)
        return 1;
    const auto &common = opts.common;
    PrunedCampaign campaign(*spec, common);
    analysis::Observability &obs = campaign.obs;
    analysis::KernelAnalysis &ka = campaign.ka;
    if (!common.json) {
        std::cout << spec->fullName() << "\n  engine: "
                  << ka.injector().slicingDescription() << ", "
                  << ka.injector().checkpointDescription() << "\n"
                  << "  scheme: "
                  << sim::protectionSchemeName(planner_config.scheme)
                  << ", budget "
                  << fmtPercent(planner_config.budget, 1) << "\n";
    }

    faults::CampaignOptions options = common.campaign;
    options.observer = obs.observer();
    if (!options.journalPath.empty())
        options.journalKey = campaign.key;

    planner_config.verify = !no_verify;
    planner_config.metrics = &obs.registry;
    analysis::ProtectionPlanner planner(ka, planner_config);
    analysis::ProtectionOutcome outcome;
    try {
        outcome = planner.plan(campaign.pruned, options);
    } catch (const faults::JournalError &error) {
        std::cerr << "journal error: " << error.what() << "\n";
        return 1;
    }

    outcome.before.anatomy.exportMetrics(obs.registry);
    obs.finalize();
    if (!exportMetrics(obs, common.metricsOut))
        return 1;

    if (common.json) {
        analysis::CampaignReport report;
        report.spec = spec;
        report.scale = common.scale;
        report.seed = common.seed;
        report.analysis = &ka;
        report.faultModel = common.campaign.faultModelIdentity();
        report.obs = &obs;
        report.extra = [&outcome](JsonWriter &json) {
            analysis::writeProtectionReport(json, outcome);
        };
        analysis::writeCampaignReport(std::cout, report);
        return 0;
    }

    std::cout << "  unprotected (" << outcome.before.dist.runs()
              << " runs): " << outcome.before.dist.summary() << "\n"
              << "  selected: " << outcome.selected.size() << " of "
              << outcome.candidateCount << " candidate groups, "
              << (outcome.plan ? outcome.plan->protectedThreadCount()
                               : 0)
              << " threads, modeled cost "
              << fmtPercent(outcome.totalInstrs > 0.0
                                ? outcome.modeledCost /
                                      outcome.totalInstrs
                                : 0.0,
                            1)
              << " of dyn instrs (budget "
              << fmtPercent(outcome.budgetFraction, 1) << ")\n";
    if (outcome.verified) {
        std::cout << "  protected   (" << outcome.after.dist.runs()
                  << " runs): " << outcome.after.dist.summary() << "\n"
                  << "  SDC " << fmtFixed(outcome.sdcBefore, 4) << " -> "
                  << fmtFixed(outcome.sdcAfter, 4) << " (achieved drop "
                  << fmtFixed(outcome.sdcBefore - outcome.sdcAfter, 4)
                  << ", " << outcome.after.injection.detectedFaults
                  << " faults detected)\n";
    } else {
        std::cout << "  verification skipped; modeled SDC coverage "
                  << fmtFixed(outcome.modeledSdcCovered, 1)
                  << " weight\n";
    }
    return 0;
}

int
cmdMerge(int argc, char **argv)
{
    KernelOptions opts;
    unsigned shards = 0;
    std::string merged_journal;
    bool allow_incomplete = false;
    int rc = parseKernelCommand(
        "fsp merge <App/Kx> --journal BASE --shards N [options]", argc,
        argv, opts, [&](OptionTable &table) {
            table.optionUnsigned("--shards", "N",
                                 "shard count of the campaign", shards);
            table.optionString(
                "--merged-journal", "PATH",
                "also emit a merged single-campaign journal\n"
                "(resumable by `fsp campaign`)",
                merged_journal);
            table.flag("--allow-incomplete",
                       "merge an in-flight campaign (folds only\n"
                       "classified sites; not comparable to a full run)",
                       allow_incomplete);
        });
    if (rc)
        return rc < 0 ? 0 : rc;
    const auto &common = opts.common;
    if (common.journalPath.empty() || shards == 0 ||
        shards > kMaxShards) {
        std::cerr << "fsp merge needs --journal <base path> and --shards "
                     "N (1.."
                  << kMaxShards << ")\n";
        return 2;
    }
    const apps::KernelSpec *spec = requireKernel(opts);
    if (!spec)
        return 1;

    // The same identity every shard ran under; the merge validates each
    // journal against it, so a knob mismatch is caught as a stale-hash
    // error, never folded silently.
    PrunedCampaign campaign(*spec, common);
    std::vector<std::string> paths;
    for (unsigned shard = 0; shard < shards; ++shard)
        paths.push_back(
            faults::shardJournalPath(common.journalPath, shard, shards));
    faults::MergeOptions merge_options;
    merge_options.requireComplete = !allow_incomplete;
    merge_options.mergedJournalPath = merged_journal;

    faults::MergeReport report;
    try {
        report = faults::mergeShardJournals(campaign.key,
                                            campaign.pruned.sites,
                                            campaign.modelHash, paths,
                                            merge_options);
    } catch (const faults::JournalError &error) {
        std::cerr << "merge error: " << error.what() << "\n";
        return 1;
    }

    // Same post-campaign fold as runPrunedCampaignDetailed: the weight
    // the pruning stages proved masked joins the distribution here.
    report.result.dist.addWeight(faults::Outcome::Masked,
                                 campaign.pruned.assumedMaskedWeight);

    if (common.json) {
        JsonWriter json(std::cout);
        json.beginObject();
        json.field("kernel", spec->fullName());
        json.field("scale", apps::scaleName(common.scale));
        json.field("seed", common.seed);
        json.field("shards", shards);
        json.field("campaignSites", report.campaignSites);
        json.field("sitesDone", report.sitesDone);
        json.field("complete", report.complete);
        // Same profile shape as `fsp campaign --json`, so merged and
        // single-process output diff cleanly.
        analysis::writeOutcomeProfile(json, "prunedEstimate",
                                      report.result.dist);
        report.result.anatomy.writeJson(json);
        json.beginObject("mergePhases");
        json.field("replaySeconds", report.phases.replaySeconds);
        json.field("injectSeconds", report.phases.injectSeconds);
        json.field("foldSeconds", report.phases.foldSeconds);
        json.field("workers",
                   static_cast<std::uint64_t>(report.phases.workers));
        json.endObject();
        json.endObject();
        return 0;
    }

    std::cout << spec->fullName() << " merged from " << shards
              << " shard journal" << (shards == 1 ? "" : "s") << "\n"
              << "  sites:    " << report.sitesDone << "/"
              << report.campaignSites
              << (report.complete ? " (complete)" : " (incomplete)")
              << "\n"
              << "  estimate (" << report.result.dist.runs()
              << " runs): " << report.result.dist.summary() << "\n";
    if (report.result.anatomy.sdcRuns() > 0)
        std::cout << "  " << report.result.anatomy.summary() << "\n";
    if (!merged_journal.empty())
        std::cout << "  merged journal: " << merged_journal << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    tools::CommandRegistry registry("fsp");
    registry.add({"list", "registered kernels", cmdList});
    registry.add({"models", "built-in fault models", cmdModels});
    registry.add(
        {"profile", "fault-space enumeration (Eq. 1)", cmdProfile});
    registry.add({"groups", "CTA/thread grouping summary", cmdGroups});
    registry.add({"disasm", "kernel listing (disassembled)", cmdDisasm});
    registry.add({"loops", "loop statistics (Table VII row)", cmdLoops});
    registry.add(
        {"prune", "pruning stage counts (Fig. 10 row)", cmdPrune});
    registry.add(
        {"campaign", "pruned campaign vs baseline", cmdCampaign});
    registry.add({"protect",
                  "plan + verify partial thread protection under a "
                  "budget",
                  cmdProtect});
    registry.add(
        {"merge", "merge shard journals into one profile", cmdMerge});
    return registry.dispatch(argc, argv, std::cout, std::cerr);
}
