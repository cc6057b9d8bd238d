/**
 * @file
 * Engineering baseline (not a paper artifact): google-benchmark
 * measurements of the substrate -- functional-simulator instruction
 * throughput, injection-run latency, fault-space enumeration, the
 * pruning pipeline itself, and serial-vs-parallel campaign scaling.
 * These numbers bound how large a campaign the harness can sustain.
 *
 * The campaign benchmarks report sites/s at worker counts 1..8 on a
 * GEMM-sized site list; on a machine with >= 8 hardware threads the
 * 8-worker row should show the parallel engine's speedup over
 * BM_CampaignSerial (results are bit-identical either way).
 *
 * BM_CampaignEngine compares the CTA-sliced injection engine against
 * forced full-grid runs per kernel (identical outcomes); the sliced
 * rows report restored bytes and executed CTAs per run alongside
 * sites/s, which is where the engine's speedup shows up.
 *
 * BM_CheckpointReplay measures the orthogonal temporal axis: the same
 * site list classified with golden-run checkpoints on vs off
 * (identical outcomes).  The `late` rows map each site's dynamic index
 * into the late half of its thread's golden trace -- where temporal
 * replay saves the most re-execution -- while the plain rows keep the
 * uniform sample.
 *
 * The sampled site-list length for the campaign/engine benchmarks is
 * overridable via the FSP_BENCH_SITES environment variable.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <tuple>
#include <vector>

#include "analysis/analyzer.hh"
#include "apps/app.hh"
#include "reference_campaign.hh"
#include "faults/fault_space.hh"
#include "faults/injector.hh"
#include "faults/campaign_engine.hh"
#include "perf_counters.hh"
#include "pruning/pipeline.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/prng.hh"

namespace {

using namespace fsp;

void
BM_GoldenRun(benchmark::State &state)
{
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    sim::Executor executor(setup.program, setup.launch);

    std::uint64_t instrs = 0;
    for (auto _ : state) {
        sim::GlobalMemory scratch = setup.memory;
        auto result = executor.run(scratch);
        benchmark::DoNotOptimize(result.totalDynInstrs);
        instrs += result.totalDynInstrs;
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GoldenRun);

void
BM_InjectionRun(benchmark::State &state)
{
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    faults::Injector injector(setup.program, setup.launch, setup.memory,
                              setup.outputs);

    faults::FaultSite site{0, 40, 7};
    for (auto _ : state)
        benchmark::DoNotOptimize(injector.inject(site));
    state.counters["runs/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InjectionRun);

void
BM_Enumeration(benchmark::State &state)
{
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    sim::Executor executor(setup.program, setup.launch);

    for (auto _ : state) {
        faults::FaultSpace space(executor, setup.memory);
        benchmark::DoNotOptimize(space.totalSites());
    }
}
BENCHMARK(BM_Enumeration);

void
BM_PruningPipeline(benchmark::State &state)
{
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    sim::Executor executor(setup.program, setup.launch);
    faults::FaultSpace space(executor, setup.memory);

    pruning::PruningConfig config;
    for (auto _ : state) {
        auto result =
            pruning::prunePipeline(executor, setup.memory, space, config);
        benchmark::DoNotOptimize(result.sites.size());
    }
}
BENCHMARK(BM_PruningPipeline);

/** GEMM site list shared by the campaign scaling benchmarks. */
const std::vector<faults::FaultSite> &
campaignSites()
{
    static const std::vector<faults::FaultSite> sites = [] {
        const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
        apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
        sim::Executor executor(setup.program, setup.launch);
        faults::FaultSpace space(executor, setup.memory);
        Prng prng(7);
        auto count =
            static_cast<std::size_t>(fsp::envU64("FSP_BENCH_SITES", 512));
        return space.sampleSites(count, prng);
    }();
    return sites;
}

void
BM_CampaignSerial(benchmark::State &state)
{
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    faults::Injector injector(setup.program, setup.launch, setup.memory,
                              setup.outputs);
    const auto &sites = campaignSites();

    std::uint64_t runs = 0;
    for (auto _ : state) {
        auto result = faults::reference::runSiteList(injector, sites);
        benchmark::DoNotOptimize(result.runs);
        runs += result.runs;
    }
    state.counters["sites/s"] = benchmark::Counter(
        static_cast<double>(runs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignSerial)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_CampaignParallel(benchmark::State &state)
{
    fsp::setVerboseLogging(false); // keep per-iteration reports quiet
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    faults::CampaignOptions options;
    options.workers = static_cast<unsigned>(state.range(0));
    faults::CampaignEngine engine(setup.program, setup.launch,
                                    setup.memory, setup.outputs,
                                    options);
    const auto &sites = campaignSites();

    std::uint64_t runs = 0;
    for (auto _ : state) {
        auto result = engine.run(sites);
        benchmark::DoNotOptimize(result.runs);
        runs += result.runs;
    }
    state.counters["sites/s"] = benchmark::Counter(
        static_cast<double>(runs), benchmark::Counter::kIsRate);
    state.counters["workers"] = static_cast<double>(options.workers);
}
BENCHMARK(BM_CampaignParallel)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Observer overhead: the same engine campaign with no observer vs the
 * full metrics bridge attached.  Compare the two rows directly; the
 * observed row also reports how many events landed in the registry.
 * (Per-site wall-clock reads only happen while an observer is
 * attached, so the bare row is the engine's true hot path.)
 */
void
BM_CampaignObserved(benchmark::State &state, bool observed)
{
    fsp::setVerboseLogging(false);
    const apps::KernelSpec *spec = apps::findKernel("GEMM/K1");
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    metrics::Registry registry;
    faults::MetricsObserver metrics_observer(registry);
    faults::CampaignOptions options;
    options.workers = 4;
    if (observed)
        options.observer = &metrics_observer;
    faults::CampaignEngine engine(setup.program, setup.launch,
                                  setup.memory, setup.outputs, options);
    const auto &sites = campaignSites();

    std::uint64_t runs = 0;
    for (auto _ : state) {
        auto result = engine.run(sites);
        benchmark::DoNotOptimize(result.runs);
        runs += result.runs;
    }
    state.counters["sites/s"] = benchmark::Counter(
        static_cast<double>(runs), benchmark::Counter::kIsRate);
    state.counters["observed"] = observed ? 1.0 : 0.0;
    if (observed) {
        state.counters["eventsInRegistry"] =
            static_cast<double>(registry.counterValue(registry.counter(
                "fsp_campaign_sites_total", "", "outcome=\"masked\"")));
    }
}
BENCHMARK_CAPTURE(BM_CampaignObserved, bare, false)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_CampaignObserved, metrics, true)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/** Deterministic sampled site list for an arbitrary kernel. */
std::vector<faults::FaultSite>
sampledSites(const char *kernel)
{
    const apps::KernelSpec *spec = apps::findKernel(kernel);
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    sim::Executor executor(setup.program, setup.launch);
    faults::FaultSpace space(executor, setup.memory);
    Prng prng(7);
    auto count =
        static_cast<std::size_t>(fsp::envU64("FSP_BENCH_SITES", 256));
    return space.sampleSites(count, prng);
}

/**
 * Nearest-rank percentile of a sample set (0 when empty).  The
 * campaign benches publish p50/p99 per-iteration rates alongside the
 * mean so tail behaviour (allocator hiccups, page-cache pressure,
 * noisy neighbours) is visible in the JSON export.
 */
double
percentileOf(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const std::size_t idx = rank == 0 ? 0 : rank - 1;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(idx),
                     samples.end());
    return samples[idx];
}

/**
 * Sliced vs full-grid injection throughput for one kernel.  The same
 * site list is classified with the engine's per-site strategy either
 * permitted (sliced) or forced off (fullgrid); outcomes are identical,
 * only the work per run changes.
 */
void
BM_CampaignEngine(benchmark::State &state, const char *kernel,
                  bool sliced)
{
    const apps::KernelSpec *spec = apps::findKernel(kernel);
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    faults::Injector injector(setup.program, setup.launch, setup.memory,
                              setup.outputs,
                              faults::InjectorOptions{.slicing = sliced});
    const auto sites = sampledSites(kernel);

    bench::PerfCounters perf;
    std::vector<double> iter_rates; // per-iteration sites/s
    std::uint64_t runs = 0;
    for (auto _ : state) {
        const auto t0 = std::chrono::steady_clock::now();
        perf.start();
        auto result = faults::reference::runSiteList(injector, sites);
        perf.stop();
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        benchmark::DoNotOptimize(result.runs);
        runs += result.runs;
        if (secs > 0.0)
            iter_rates.push_back(
                static_cast<double>(result.runs) / secs);
    }

    const faults::InjectionStats &stats = injector.stats();
    auto per_run = [&](std::uint64_t total) {
        return stats.injections > 0
                   ? static_cast<double>(total) /
                         static_cast<double>(stats.injections)
                   : 0.0;
    };
    state.counters["sites/s"] = benchmark::Counter(
        static_cast<double>(runs), benchmark::Counter::kIsRate);
    state.counters["sites/s_p50"] = percentileOf(iter_rates, 0.50);
    state.counters["sites/s_p99"] = percentileOf(iter_rates, 0.99);
    state.counters["restoredB/run"] = per_run(stats.restoredBytes);
    state.counters["ctas/run"] = per_run(stats.executedCtas);
    state.counters["sliced"] =
        static_cast<double>(injector.slicingActive());
    // Microarchitectural columns, emitted only where the PMU is
    // reachable (bare metal; most VMs and containers fall back).
    if (perf.available() && runs > 0) {
        const double n = static_cast<double>(runs);
        state.counters["cyc/site"] =
            static_cast<double>(perf.total().cycles) / n;
        state.counters["cacheMiss/site"] =
            static_cast<double>(perf.total().cacheMisses) / n;
        state.counters["branchMiss/site"] =
            static_cast<double>(perf.total().branchMisses) / n;
    }
}
BENCHMARK_CAPTURE(BM_CampaignEngine, GEMM_sliced, "GEMM/K1", true)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_CampaignEngine, GEMM_fullgrid, "GEMM/K1", false)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_CampaignEngine, MVT_sliced, "MVT/K1", true)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_CampaignEngine, MVT_fullgrid, "MVT/K1", false)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_CampaignEngine, PathFinder_sliced, "PathFinder/K1",
                  true)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_CampaignEngine, PathFinder_fullgrid, "PathFinder/K1",
                  false)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/**
 * Checkpointed temporal replay vs from-start execution for one kernel.
 * The same site list is classified with golden-run checkpoints either
 * used (on) or disabled (off); outcomes are identical, only the golden
 * prefix each run re-executes changes.  With @p late, each site's
 * dynamic index is remapped into the late half of its thread's golden
 * trace, the regime where replay saves the most work; sites are
 * processed in (cta, thread, dynIndex) order either way, matching the
 * parallel engine's chunk-local ordering.
 */
void
BM_CheckpointReplay(benchmark::State &state, const char *kernel,
                    bool checkpoints, bool late)
{
    const apps::KernelSpec *spec = apps::findKernel(kernel);
    apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
    faults::InjectorOptions options;
    options.checkpoints = checkpoints;
    faults::Injector injector(setup.program, setup.launch, setup.memory,
                              setup.outputs, options);
    auto sites = sampledSites(kernel);
    if (late) {
        // Replace the uniform sample with equally many valid sites
        // drawn from the late half of each thread's golden trace.
        // (Remapping indices blindly could land on instructions with
        // no destination register, where the fault never fires.)
        sim::Executor executor(setup.program, setup.launch);
        faults::FaultSpace space(executor, setup.memory);
        Prng prng(11);
        std::vector<faults::FaultSite> late_sites;
        for (int round = 0;
             round < 16 && late_sites.size() < sites.size(); ++round) {
            for (auto &s : space.sampleSites(sites.size() * 2, prng)) {
                if (2 * s.dynIndex >= injector.goldenICnt(s.thread) &&
                    late_sites.size() < sites.size())
                    late_sites.push_back(s);
            }
        }
        sites = std::move(late_sites);
    }
    const unsigned block = setup.launch.block.count();
    std::sort(sites.begin(), sites.end(),
              [block](const faults::FaultSite &a,
                      const faults::FaultSite &b) {
                  return std::tuple(a.thread / block, a.thread,
                                    a.dynIndex) <
                         std::tuple(b.thread / block, b.thread,
                                    b.dynIndex);
              });

    std::uint64_t runs = 0;
    for (auto _ : state) {
        auto result = faults::reference::runSiteList(injector, sites);
        benchmark::DoNotOptimize(result.runs);
        runs += result.runs;
    }

    const faults::InjectionStats &stats = injector.stats();
    auto per_run = [&](std::uint64_t total) {
        return stats.injections > 0
                   ? static_cast<double>(total) /
                         static_cast<double>(stats.injections)
                   : 0.0;
    };
    state.counters["sites/s"] = benchmark::Counter(
        static_cast<double>(runs), benchmark::Counter::kIsRate);
    state.counters["restores/run"] = per_run(stats.checkpointRestores);
    state.counters["skipped/run"] = per_run(stats.skippedDynInstrs);
    state.counters["ckpt"] =
        static_cast<double>(injector.checkpointsActive());
}
BENCHMARK_CAPTURE(BM_CheckpointReplay, GEMM_ckpt, "GEMM/K1", true, false)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_CheckpointReplay, GEMM_nockpt, "GEMM/K1", false,
                  false)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_CheckpointReplay, GEMM_late_ckpt, "GEMM/K1", true,
                  true)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_CheckpointReplay, GEMM_late_nockpt, "GEMM/K1",
                  false, true)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_Assembly(benchmark::State &state)
{
    const apps::KernelSpec *spec = apps::findKernel("HotSpot/K1");
    for (auto _ : state) {
        apps::KernelSetup setup = spec->setup(apps::Scale::Small, 42);
        benchmark::DoNotOptimize(setup.program.size());
    }
}
BENCHMARK(BM_Assembly);

} // namespace

BENCHMARK_MAIN();
