/**
 * @file
 * Full resilience report for one kernel -- the workflow a reliability
 * engineer would run to characterise a workload:
 *
 *   1. enumerate the fault space (Eq. 1);
 *   2. show the hierarchical CTA/thread grouping;
 *   3. run the progressive pruning pipeline and report each stage;
 *   4. inject the pruned space and print the weighted error-resilience
 *      profile, with a random baseline cross-check.
 *
 * Options are the shared tool set (analysis/cli_options.hh); run with
 * --help for the generated list.  Highlights: --workers selects the
 * campaign engine's worker count (results are bit-identical to serial
 * at any setting); --no-slicing / --no-checkpoints are A/B switches
 * (outcomes identical either way); --journal PATH makes the pruned
 * campaign crash-safe and --resume continues a killed one without
 * repeating its injections; --json replaces the report with a single
 * machine-readable document on stdout.
 */

#include <iostream>
#include <string>

#include "analysis/analyzer.hh"
#include "analysis/cli_options.hh"
#include "analysis/observability.hh"
#include "analysis/report.hh"
#include "apps/app.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace fsp;

    std::string name = "PathFinder/K1";
    analysis::CommonCliOptions common;

    OptionTable table;
    table.setUsage("resilience_report [App/Kx] [options]");
    table.positional("App/Kx", "kernel to analyse (default " + name + ")",
                     [&name](const std::string &arg) {
                         name = arg;
                         return true;
                     });
    analysis::addCommonOptions(table, common);
    std::string kernels = "kernels:\n";
    for (const auto &spec : apps::allKernels())
        kernels += "  " + spec.fullName() + "\n";
    table.setEpilog(kernels);

    switch (table.parse(argc, argv, 1, std::cerr)) {
      case OptionTable::Parse::Ok:
        break;
      case OptionTable::Parse::Help:
        return 0;
      case OptionTable::Parse::Error:
        return 1;
    }
    if (!analysis::finalizeCommonOptions(common))
        return 1;

    const apps::KernelSpec *spec = apps::findKernel(name);
    if (spec == nullptr) {
        std::cerr << "unknown kernel '" << name << "'\n";
        table.printHelp(std::cerr);
        return 1;
    }

    analysis::Observability obs(common.progressEvery);
    analysis::AnalysisConfig facade;
    facade.engine = common.engine;
    facade.execMetrics = &obs.exec;
    analysis::KernelAnalysis ka(*spec, common.scale, facade);

    // Journal (when requested) covers the pruned campaign only; the
    // baseline runs journal-less (its random site list is a different
    // campaign and would fail the header hash anyway).
    faults::CampaignOptions pruned_options = common.campaign;
    pruned_options.observer = obs.observer();
    if (!pruned_options.journalPath.empty())
        pruned_options.journalKey =
            analysis::campaignJournalKey(*spec, common.scale, common);
    faults::CampaignOptions baseline_options = common.campaign;
    baseline_options.observer = obs.observer();
    baseline_options.journalPath.clear();
    baseline_options.resume = false;

    if (common.json) {
        const auto &space = ka.space();
        auto pruned = ka.prune(common.pruning, &obs.registry);
        faults::CampaignResult estimated;
        try {
            estimated =
                ka.runPrunedCampaignDetailed(pruned, pruned_options);
        } catch (const faults::JournalError &error) {
            std::cerr << "journal error: " << error.what() << "\n";
            return 1;
        }
        auto pruned_stats = ka.campaignEngine(pruned_options).lastStats();
        faults::CampaignResult baseline;
        if (common.baseline > 0)
            baseline = ka.runBaseline(common.baseline, common.seed + 17,
                                      baseline_options);
        estimated.anatomy.exportMetrics(obs.registry);
        obs.finalize();
        if (!common.metricsOut.empty() &&
            !obs.writePrometheusFile(common.metricsOut)) {
            std::cerr << "cannot write metrics snapshot to '"
                      << common.metricsOut << "'\n";
            return 1;
        }

        analysis::CampaignReport report;
        report.spec = spec;
        report.scale = common.scale;
        report.seed = common.seed;
        report.includeSuite = true;
        report.analysis = &ka;
        report.faultModel = common.campaign.faultModelIdentity();
        report.space = &space;
        report.stageCounts = &pruned.counts;
        report.estimate = &estimated;
        if (common.baseline > 0)
            report.baseline = &baseline;
        report.stats = &pruned_stats;
        report.obs = &obs;
        analysis::writeCampaignReport(std::cout, report);
        return 0;
    }

    std::cout << "=============================================\n"
              << " Resilience report: " << spec->suite << " "
              << spec->fullName() << " (" << spec->kernelName << ")\n"
              << " scale: " << apps::scaleName(common.scale) << "\n"
              << "=============================================\n\n";

    // --- 1. Fault space.
    const auto &space = ka.space();
    std::cout << "[1] fault space (Eq. 1)\n"
              << "    threads:        " << space.threadCount() << "\n"
              << "    dyn instrs:     " << fmtCount(space.totalDynInstrs())
              << "\n"
              << "    fault sites:    " << fmtCount(space.totalSites())
              << "\n\n";

    std::cout << "    engine:         " << ka.injector().slicingDescription()
              << "\n"
              << "    replay:         "
              << ka.injector().checkpointDescription() << "\n"
              << "    independence:   " << ka.slicingPlan().reason()
              << "\n"
              << "    fault model:    "
              << common.campaign.faultModelIdentity() << "\n\n";

    // --- 2+3. Pruning pipeline.
    auto pruned = ka.prune(common.pruning, &obs.registry);
    if (pruned.slicedProfiling) {
        std::cout << "    (profiling run sliced to " << pruned.profiledCtas
                  << " of " << ka.slicingPlan().ctaCount() << " CTAs)\n";
    }
    std::cout << "[2] thread-wise grouping\n"
              << "    CTA groups:     " << pruned.grouping.ctaGroups.size()
              << "\n"
              << "    thread groups:  "
              << pruned.grouping.representativeCount() << "\n";
    for (const auto &cg : pruned.grouping.ctaGroups) {
        std::cout << "      CTA group avg iCnt " << fmtFixed(cg.avgICnt, 1)
                  << " x" << cg.ctas.size() << " CTAs, "
                  << cg.threadGroups.size() << " thread group(s)\n";
    }

    const auto &c = pruned.counts;
    std::cout << "\n[3] progressive pruning\n";
    TextTable stages({"stage", "surviving sites", "reduction"});
    auto ratio = [&](std::uint64_t v) {
        return "x" + fmtFixed(static_cast<double>(c.exhaustive) /
                                  static_cast<double>(v),
                              1);
    };
    stages.addRow({"exhaustive", fmtCount(c.exhaustive), "x1.0"});
    stages.addRow({"+ thread-wise", fmtCount(c.afterThread),
                   ratio(c.afterThread)});
    stages.addRow({"+ instruction-wise", fmtCount(c.afterInstruction),
                   ratio(c.afterInstruction)});
    stages.addRow({"+ loop-wise", fmtCount(c.afterLoop),
                   ratio(c.afterLoop)});
    stages.addRow({"+ bit-wise", fmtCount(c.afterBit),
                   ratio(c.afterBit)});
    stages.print(std::cout);

    // --- 4. Campaigns (unified engine; bit-identical to serial).
    std::cout << "\n[4] injection campaigns\n";
    faults::CampaignResult estimated;
    try {
        estimated = ka.runPrunedCampaignDetailed(pruned, pruned_options);
    } catch (const faults::JournalError &error) {
        std::cerr << "journal error: " << error.what() << "\n";
        return 1;
    }
    const faults::OutcomeDist &estimate = estimated.dist;
    std::cout << "    pruned estimate:  " << estimate.summary() << "\n";
    auto pruned_stats = ka.campaignEngine(pruned_options).lastStats();
    if (pruned_stats.replayedSites > 0) {
        std::cout << "    (journal resume: "
                  << pruned_stats.replayedSites << " of "
                  << pruned_stats.sites
                  << " outcomes replayed, not re-injected)\n";
    }
    if (common.baseline > 0) {
        auto baseline = ka.runBaseline(common.baseline, common.seed + 17,
                                       baseline_options);
        std::cout << "    random baseline:  " << baseline.dist.summary()
                  << "\n";
    }
    std::cout << "\ninjections used: " << estimate.runs() << " (vs "
              << fmtCount(space.totalSites()) << " exhaustive)\n";

    // --- 4b. SDC anatomy (how the silent corruptions look).
    const faults::SdcAnatomyProfile &anatomy = estimated.anatomy;
    if (anatomy.sdcRuns() > 0) {
        std::cout << "\n[4b] sdc anatomy (" << anatomy.sdcRuns()
                  << " SDC runs)\n"
                  << "    " << anatomy.summary() << "\n";
        auto ranked = anatomy.ranking(5);
        if (!ranked.empty()) {
            TextTable top({"static instr", "SDC wt", "masked wt",
                           "other wt", "runs"});
            for (const auto &entry : ranked) {
                top.addRow({std::to_string(entry.staticIndex),
                            fmtFixed(entry.counts.sdc, 1),
                            fmtFixed(entry.counts.masked, 1),
                            fmtFixed(entry.counts.other, 1),
                            std::to_string(entry.counts.runs)});
            }
            std::cout << "    most SDC-prone static instructions:\n";
            top.print(std::cout);
        }
    }

    // --- 5. Campaign throughput (pruned sweep; per-phase breakdown).
    std::cout << "\n[5] campaign throughput (pruned sweep)\n"
              << "    workers:        " << pruned_stats.workers
              << " (chunk " << pruned_stats.chunkSize << ", "
              << pruned_stats.chunks << " chunks)\n"
              << "    campaign:       " << pruned_stats.summary() << "\n"
              << "    phases:         replay "
              << fmtFixed(pruned_stats.replaySeconds, 3) << " s, inject "
              << fmtFixed(pruned_stats.injectSeconds, 3) << " s, fold "
              << fmtFixed(pruned_stats.foldSeconds, 3) << " s\n"
              << "    injection:      " << pruned_stats.injection.summary()
              << "\n"
              << "    per-worker runs:";
    for (std::uint64_t runs : pruned_stats.perWorkerRuns)
        std::cout << " " << runs;
    std::cout << "\n";

    obs.finalize();
    if (!common.metricsOut.empty()) {
        if (!obs.writePrometheusFile(common.metricsOut)) {
            std::cerr << "cannot write metrics snapshot to '"
                      << common.metricsOut << "'\n";
            return 1;
        }
        std::cout << "\nmetrics snapshot written to " << common.metricsOut
                  << "\n";
    }
    return 0;
}
