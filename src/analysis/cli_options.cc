/**
 * @file
 * Shared tool-option registration.
 */

#include "analysis/cli_options.hh"

#include <cstdlib>
#include <iostream>

namespace fsp::analysis {

void
addCommonOptions(OptionTable &table, CommonCliOptions &opts)
{
    table.flag("--paper", "paper-scale geometry (default: small)",
               [&opts] { opts.scale = apps::Scale::Paper; });
    table.optionU64("--seed", "N", "master seed (default 1)", opts.seed);
    table.optionSize("--baseline", "N",
                     "random-baseline runs (default 2000; 0 skips)",
                     opts.baseline);
    table.optionUnsigned("--loop-iters", "N",
                         "sampled loop iterations (default 8)",
                         opts.pruning.loop.iterations);
    table.optionUnsigned("--bit-samples", "N",
                         "sampled bit positions (default 16)",
                         opts.pruning.bit.samples);
    table.optionUnsigned("--pilots", "N",
                         "representatives per thread group (default 1)",
                         opts.pruning.thread.repsPerGroup);
    table.optionUnsigned(
        "--workers", "N",
        "campaign worker threads (default: hardware);\n"
        "results are bit-identical at any worker count",
        opts.campaign.workers);
    table.optionSize("--chunk", "N",
                     "sites per campaign chunk (default: derived)",
                     opts.campaign.chunkSize);
    table.flag("--no-slicing",
               "force full-grid injection runs even when the\n"
               "kernel's CTAs are independent (A/B validation);\n"
               "outcomes are bit-identical either way",
               [&opts] { opts.engine.slicing = false; });
    table.flag("--no-checkpoints",
               "execute every injection run from instruction\n"
               "zero instead of resuming from golden-run\n"
               "checkpoints (A/B validation); outcomes are\n"
               "bit-identical either way",
               [&opts] { opts.engine.checkpoints = false; });
    table.optionString(
        "--fault-model", "SPEC",
        "fault-model strategy mapping each (thread, instr,\n"
        "bit) site to an injected fault (default: the\n"
        "paper's single-bit destination-register flip);\n"
        "SPEC is name[:key=value[,key=value...]], e.g.\n"
        "multi-bit:width=3 or intermittent-stuck:period=8\n"
        "(`fsp models` lists every built-in model)",
        opts.faultModel);
    table.optionString(
        "--journal", "PATH",
        "append each completed chunk of the pruned\n"
        "campaign to a crash-safe journal at PATH",
        opts.journalPath);
    table.flag("--resume",
               "resume from an existing --journal file, skipping\n"
               "already-injected sites (profile is bit-identical\n"
               "to an uninterrupted run)",
               opts.resume);
    table.optionString(
        "--cache", "DIR",
        "content-addressed section result cache: replay\n"
        "outcomes of unchanged trace sections from DIR and\n"
        "store fresh ones back, so an edit-and-rerun only\n"
        "injects the changed sections (profile is\n"
        "bit-identical to a cold run)",
        opts.cacheDir);
    table.optionString(
        "--metrics-out", "PATH",
        "write a Prometheus text-format metrics snapshot\n"
        "to PATH on exit (pruning stages, campaign phases,\n"
        "outcome counters, injection-latency histograms)",
        opts.metricsOut);
    table.option("--progress", "SEC",
                 "print a live progress line (completion, outcome\n"
                 "mix, throughput, ETA) at most every SEC seconds;\n"
                 "0 reports at every chunk",
                 [&opts](const std::string &text) {
                     char *end = nullptr;
                     double seconds = std::strtod(text.c_str(), &end);
                     if (end == text.c_str() || *end != '\0' ||
                         seconds < 0.0) {
                         return false;
                     }
                     opts.progressEvery = seconds;
                     return true;
                 });
    table.flag("--json",
               "machine-readable output on stdout", opts.json);
}

bool
finalizeCommonOptions(CommonCliOptions &opts)
{
    if (opts.resume && opts.journalPath.empty()) {
        std::cerr << "--resume needs --journal <path>\n";
        return false;
    }
    if (!opts.faultModel.empty()) {
        std::string error;
        std::unique_ptr<faults::FaultModel> model =
            faults::parseFaultModel(opts.faultModel, &error);
        if (!model) {
            std::cerr << "--fault-model: " << error << "\n";
            return false;
        }
        opts.campaign.faultModel = std::move(model);
    }
    opts.pruning.seed = opts.seed;
    opts.campaign.journalPath = opts.journalPath;
    opts.campaign.resume = opts.resume;
    // Model randomness (memory addresses, activation schedules) keys
    // off the campaign seed whether or not a journal tags the key.
    opts.campaign.journalKey.seed = opts.seed;
    return true;
}

faults::JournalKey
campaignJournalKey(const apps::KernelSpec &spec, apps::Scale scale,
                   const CommonCliOptions &opts)
{
    const pruning::PruningConfig &p = opts.pruning;
    std::string tag = spec.fullName();
    tag += '@';
    tag += apps::scaleName(scale);
    tag += "|pilots=" + std::to_string(p.thread.repsPerGroup);
    tag += "|instr=" + std::to_string(p.instruction.enabled ? 1 : 0);
    tag += "|loop=" + std::to_string(p.loop.iterations);
    tag += "|bits=" + std::to_string(p.bit.samples);
    tag += "|predzf=" + std::to_string(p.bit.predZeroFlagOnly ? 1 : 0);
    return faults::JournalKey{std::move(tag), opts.seed};
}

} // namespace fsp::analysis
