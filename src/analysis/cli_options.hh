/**
 * @file
 * The option set shared by the command-line front ends (tools/fsp and
 * examples/resilience_report): one registration function populating a
 * util OptionTable, so both tools accept the same flags with the same
 * semantics and generate their --help from the same table.
 */

#ifndef FSP_ANALYSIS_CLI_OPTIONS_HH
#define FSP_ANALYSIS_CLI_OPTIONS_HH

#include <cstdint>
#include <string>

#include "apps/app.hh"
#include "faults/campaign_engine.hh"
#include "faults/injector.hh"
#include "pruning/pipeline.hh"
#include "util/cli.hh"

namespace fsp::analysis {

/** Values produced by the shared flag set. */
struct CommonCliOptions
{
    apps::Scale scale = apps::Scale::Small;
    std::uint64_t seed = 1;
    std::size_t baseline = 2000;    ///< baseline runs; 0 skips it
    bool json = false;
    std::string journalPath;        ///< --journal; empty disables
    bool resume = false;            ///< --resume
    std::string cacheDir;           ///< --cache; empty disables
    std::string metricsOut;         ///< --metrics-out; empty disables
    double progressEvery = -1.0;    ///< --progress seconds; <0 disables
    std::string faultModel;         ///< --fault-model spec; empty = default
    pruning::PruningConfig pruning;
    faults::CampaignOptions campaign;
    faults::InjectorOptions engine; ///< --no-slicing, --no-checkpoints
};

/**
 * Register the shared options (--paper, --seed, --baseline,
 * --loop-iters, --bit-samples, --pilots, --workers, --chunk,
 * --no-slicing, --no-checkpoints, --fault-model, --journal, --resume,
 * --cache, --metrics-out, --progress, --json) against @p opts.  Call
 * finalizeCommonOptions() after a successful parse.
 */
void addCommonOptions(OptionTable &table, CommonCliOptions &opts);

/**
 * Propagate cross-cutting values after parsing: the master seed into
 * the pruning config and the campaign's model-randomness seed, the
 * journal path/resume flag into the campaign options, and the parsed
 * --fault-model strategy into CampaignOptions::faultModel.  Returns
 * false (with a diagnostic on stderr) when the combination is invalid
 * (--resume without --journal, malformed --fault-model spec).
 */
bool finalizeCommonOptions(CommonCliOptions &opts);

/**
 * The campaign identity folded into a journal's header hash alongside
 * the site-list hash: kernel, scale, and every pruning knob that
 * shapes the site list.  Changing any of them makes a stale journal
 * fail resume validation instead of silently mixing campaigns.
 */
faults::JournalKey campaignJournalKey(const apps::KernelSpec &spec,
                                      apps::Scale scale,
                                      const CommonCliOptions &opts);

} // namespace fsp::analysis

#endif // FSP_ANALYSIS_CLI_OPTIONS_HH
