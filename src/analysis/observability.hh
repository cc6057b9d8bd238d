/**
 * @file
 * One-stop observability bundle for the command-line front ends: a
 * metrics registry pre-wired with the campaign MetricsObserver, the
 * simulator counter sink, and (optionally) live progress reporting.
 *
 * tools/fsp and examples/resilience_report both need the same plumbing
 * -- build a Registry, bridge campaign events into it, count the
 * facade's profiling runs, honour --progress, then export the snapshot
 * as a Prometheus file and/or a --json object.  This type owns that
 * wiring so each tool adds observability in a few lines:
 *
 *     analysis::Observability obs(opts.progressEvery);
 *     analysis::AnalysisConfig facade;
 *     facade.execMetrics = &obs.exec;
 *     analysis::KernelAnalysis ka(spec, scale, facade);
 *     auto pruned = ka.prune(pruning, &obs.registry);
 *     options.observer = obs.observer();
 *     ...
 *     obs.finalize();
 *     obs.writePrometheusFile(opts.metricsOut);  // if requested
 */

#ifndef FSP_ANALYSIS_OBSERVABILITY_HH
#define FSP_ANALYSIS_OBSERVABILITY_HH

#include <optional>
#include <string>

#include "faults/observer.hh"
#include "sim/executor.hh"
#include "util/metrics.hh"

namespace fsp {
class JsonWriter;
} // namespace fsp

namespace fsp::analysis {

/** The tools' assembled metrics/observer stack. */
struct Observability
{
    /**
     * @param progressEverySeconds interval for live progress lines;
     *        negative disables them (the --progress flag's default).
     */
    explicit Observability(double progressEverySeconds = -1.0);

    Observability(const Observability &) = delete;
    Observability &operator=(const Observability &) = delete;

    /** The metric store every component below feeds. */
    metrics::Registry registry;

    /** Simulator counters; attach via AnalysisConfig::execMetrics. */
    sim::ExecMetrics exec;

    /** Bridges campaign events into `registry`. */
    faults::MetricsObserver metricsObserver;

    /** Present when live progress was requested. */
    std::optional<faults::LiveProgress> live;

    /**
     * The observer to hand to CampaignOptions::observer (metrics plus,
     * when requested, live progress).  Valid for this object's
     * lifetime.
     */
    faults::CampaignObserver *observer() { return &observers_; }

    /**
     * Fold the executor counters into the registry.  Call once after
     * the last campaign, before exporting.
     */
    void finalize();

    /** Export the snapshot to @p path; false on I/O error. */
    bool
    writePrometheusFile(const std::string &path) const
    {
        return registry.writePrometheusFile(path);
    }

    /**
     * Emit the snapshot as a "metricsSnapshot" object (containing the
     * registry's "metrics" array) inside the currently open JSON
     * object.
     */
    void writeJsonSnapshot(JsonWriter &json) const;

  private:
    faults::ObserverList observers_;
    metrics::CounterId sim_runs_;
    metrics::CounterId sim_ctas_;
    metrics::CounterId sim_instrs_;
};

} // namespace fsp::analysis

#endif // FSP_ANALYSIS_OBSERVABILITY_HH
