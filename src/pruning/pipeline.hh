/**
 * @file
 * The progressive four-stage pruning pipeline (paper section III):
 * thread-wise -> instruction-wise -> loop-wise -> bit-wise, each stage
 * further reducing the fault-site list produced by the previous one
 * while carrying extrapolation weights so the final weighted campaign
 * estimates the full-space error resilience profile.
 */

#ifndef FSP_PRUNING_PIPELINE_HH
#define FSP_PRUNING_PIPELINE_HH

#include <cstdint>
#include <vector>

#include "faults/fault_space.hh"
#include "pruning/bits.hh"
#include "pruning/grouping.hh"
#include "pruning/instr_common.hh"
#include "pruning/loops.hh"
#include "pruning/thread_plan.hh"
#include "sim/executor.hh"
#include "util/metrics.hh"

namespace fsp::faults {
class SlicingPlan;
} // namespace fsp::faults

namespace fsp::pruning {

/**
 * Pipeline configuration, grouped by stage so future stages extend
 * their own sub-struct instead of widening one flat bag of knobs.
 */
struct PruningConfig
{
    std::uint64_t seed = 1;

    /** Thread-wise grouping stage (paper section III-A). */
    struct ThreadStage
    {
        /**
         * Representatives ("pilots") injected per thread group.  The
         * paper uses 1; raising this reduces the variance introduced
         * by standing one thread in for a whole group, at proportional
         * injection cost (see bench_ablation_reps).
         */
        unsigned repsPerGroup = 1;
    };

    /** Instruction-wise common-block stage (section III-B). */
    struct InstructionStage
    {
        /** Enable instruction-wise common-block pruning. */
        bool enabled = true;
    };

    /** Loop-wise iteration-sampling stage (section III-C). */
    struct LoopStage
    {
        /** Sampled iterations per loop; 0 disables the stage. */
        unsigned iterations = 8;
    };

    /** Bit-wise sampling stage (section III-D). */
    struct BitStage
    {
        /** Sampled bit positions per register; 0 keeps every bit. */
        unsigned samples = 16;

        /** Prune non-zero-flag predicate bits as masked. */
        bool predZeroFlagOnly = true;
    };

    ThreadStage thread;
    InstructionStage instruction;
    LoopStage loop;
    BitStage bit;
};

/** Fault-site counts after each progressive stage (Fig. 10 series). */
struct StageCounts
{
    std::uint64_t exhaustive = 0;
    std::uint64_t afterThread = 0;
    std::uint64_t afterInstruction = 0;
    std::uint64_t afterLoop = 0;
    std::uint64_t afterBit = 0;
};

/** Complete result of the pruning pipeline. */
struct PruningResult
{
    ThreadwisePruning grouping;
    std::vector<ThreadPlan> plans;          ///< final per-rep weights
    std::vector<faults::WeightedSite> sites; ///< final injection list
    double assumedMaskedWeight = 0.0;
    StageCounts counts;
    InstrPruningStats instrStats;
    LoopPruningStats loopStats;
    bool slicedProfiling = false;    ///< profiling run was CTA-sliced
    std::uint64_t profiledCtas = 0;  ///< CTAs executed by the traced run

    /**
     * Total weight represented by the pruned space (site weights plus
     * assumed-masked weight); equals the exhaustive site count when no
     * sampling stage dropped weight, and matches it in expectation
     * otherwise.
     */
    double
    totalRepresentedWeight() const
    {
        double w = assumedMaskedWeight;
        for (const auto &s : sites)
            w += s.weight;
        return w;
    }
};

/**
 * Run the full pipeline against an enumerated fault space.
 *
 * @param executor the configured kernel launch.
 * @param image pristine global memory (for the traced profiling run).
 * @param space enumerated fault space of the launch.
 * @param config stage parameters.
 * @param slicing optional CTA-independence proof; when it declares the
 *        kernel independent, the traced profiling run executes only the
 *        representatives' CTAs.  Traces are bit-identical either way
 *        (independent CTAs execute the same in isolation); this only
 *        skips simulating CTAs nobody looks at.
 * @param metrics optional registry receiving per-stage wall time
 *        (fsp_pruning_stage_seconds) and surviving-site-count
 *        (fsp_pruning_stage_sites) gauges; never affects results.
 */
PruningResult prunePipeline(const sim::Executor &executor,
                            const sim::GlobalMemory &image,
                            const faults::FaultSpace &space,
                            const PruningConfig &config,
                            const faults::SlicingPlan *slicing = nullptr,
                            metrics::Registry *metrics = nullptr);

/**
 * Build (unpruned) thread plans for the representatives chosen by
 * thread-wise grouping: one traced run, weights initialised to each
 * group's extrapolation weight.  Exposed separately so experiments can
 * drive individual stages (Figs. 5-8).
 *
 * @param slicing optional independence proof enabling a CTA-sliced
 *        traced run (see prunePipeline).
 * @param profiledCtas when non-null, receives the number of CTAs the
 *        traced run executed.
 */
std::vector<ThreadPlan>
buildThreadPlans(const sim::Executor &executor,
                 const sim::GlobalMemory &image,
                 const ThreadwisePruning &grouping,
                 const faults::SlicingPlan *slicing = nullptr,
                 std::uint64_t *profiledCtas = nullptr);

} // namespace fsp::pruning

#endif // FSP_PRUNING_PIPELINE_HH
