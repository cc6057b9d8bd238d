/**
 * @file
 * CTA-independence analysis behind the sliced injection engine.
 *
 * A fault in one thread can only propagate beyond its CTA through
 * global memory.  The golden run records every CTA's global read/write
 * byte footprint; this analysis declares the kernel's CTAs independent
 * when (a) no two CTAs write a common byte and (b) no CTA reads a byte
 * another CTA writes.  Under independence, executing just the faulty
 * CTA against the pristine image is bit-identical to its execution in
 * the full grid -- the execution-engine counterpart of the paper's
 * fault-site pruning.
 *
 * The fault itself can violate the golden footprints (a corrupted
 * address register reads or writes anywhere), so independence alone is
 * not enough for exactness.  The plan therefore precomputes per-CTA
 * hazard sets that the sliced executor checks on every global access:
 *
 *  - loadHazards(c): bytes written by CTAs other than c.
 *  - storeHazards(c): bytes read *or* written by other CTAs.
 *
 * A HazardResolver answers those accesses exactly instead of giving
 * up.  The full grid runs CTAs to completion in linear order and every
 * hazard byte has exactly one golden writer d, so a faulty load by CTA
 * c reads d's golden final value when d < c, the pristine image when
 * d > c, and c's own earlier store when c wrote the byte in this run.
 * The plan keeps an owner-tagged write map and the golden final bytes
 * of every written range for this; both are built once and shared by
 * every injector clone.  Faulty stores are logged: a byte only earlier
 * CTAs read keeps the faulty value, a byte a later CTA writes without
 * reading ends golden, and a byte a later CTA reads puts that CTA into
 * the run.  The injector then re-runs the transitive closure of such
 * readers as one multi-CTA slice, with hazard sets relative to the
 * closure (hazardsOutside), and falls back to the full grid only when
 * the resolver declines.
 */

#ifndef FSP_FAULTS_SLICING_HH
#define FSP_FAULTS_SLICING_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/executor.hh"
#include "sim/footprint.hh"
#include "sim/memory.hh"

namespace fsp::faults {

/** Per-kernel CTA-independence decision plus per-CTA hazard sets. */
class SlicingPlan
{
  public:
    /** Empty plan: not sliceable (no footprint data). */
    SlicingPlan() = default;

    /** One CTA's golden write range and its golden final bytes. */
    struct OwnedWrite
    {
        std::uint64_t begin;
        std::uint64_t end;
        std::uint64_t cta;
        std::size_t offset; ///< into the golden final bytes
    };

    /** Hazard sets of a run that executes a CTA subset. */
    struct Hazards
    {
        sim::IntervalSet loads;  ///< bytes CTAs outside the run write
        sim::IntervalSet stores; ///< ... or read
    };

    /**
     * Analyze the golden run's per-CTA footprints.  @p goldenFinal,
     * the memory image the golden run left, supplies the final bytes
     * a HazardResolver serves.
     */
    static SlicingPlan analyze(std::vector<sim::CtaFootprint> footprints,
                               const sim::GlobalMemory &goldenFinal);

    /** May injection runs execute only the faulty CTA? */
    bool independent() const { return independent_; }

    /** Human-readable decision ("cta-independent" or why not). */
    const std::string &reason() const { return reason_; }

    std::size_t ctaCount() const { return footprints_.size(); }

    const sim::CtaFootprint &
    footprint(std::size_t cta) const
    {
        return footprints_[cta];
    }

    /** Golden write footprint of @p cta. */
    const sim::IntervalSet &
    writes(std::size_t cta) const
    {
        return footprints_[cta].writes;
    }

    /** @{ Hazard sets (valid only when independent()). */
    const sim::IntervalSet &
    loadHazards(std::size_t cta) const
    {
        return load_hazards_[cta];
    }

    const sim::IntervalSet &
    storeHazards(std::size_t cta) const
    {
        return store_hazards_[cta];
    }
    /** @} */

    /** Hazard sets of a run executing exactly @p ctas (sorted). */
    Hazards hazardsOutside(const std::vector<std::uint64_t> &ctas) const;

    /** Golden writer range of the byte at @p addr; null if unwritten. */
    const OwnedWrite *writerOf(std::uint64_t addr) const;

    /** Golden final value of byte @p addr inside range @p w. */
    std::uint8_t
    goldenFinal(const OwnedWrite &w, std::uint64_t addr) const
    {
        return golden_final_[w.offset + (addr - w.begin)];
    }

  private:
    bool independent_ = false;
    std::string reason_ = "no footprint data";
    std::vector<sim::CtaFootprint> footprints_;
    std::vector<sim::IntervalSet> load_hazards_;
    std::vector<sim::IntervalSet> store_hazards_;
    sim::IntervalSet all_writes_;
    /** Every CTA's golden write ranges, sorted and disjoint. */
    std::vector<OwnedWrite> write_map_;
    std::vector<std::uint8_t> golden_final_;
};

/**
 * The exact answer to one sliced run's hazard accesses (see the file
 * comment).  One resolver serves one executor run over a sorted CTA
 * set; slice() is what to hand Executor::run.
 */
class HazardResolver final : public sim::SliceResolver
{
  public:
    /**
     * @param plan an independent plan with golden final bytes.
     * @param pristine the memory image every run starts from.
     * @param ctas the CTAs the run executes (sorted, unique).
     */
    HazardResolver(const SlicingPlan &plan,
                   const sim::GlobalMemory &pristine,
                   std::vector<std::uint64_t> ctas);

    const sim::IntervalSet &loadHazards() const override
    {
        return *load_hazards_;
    }
    const sim::IntervalSet &storeHazards() const override
    {
        return *store_hazards_;
    }
    bool load(std::uint64_t cta, std::uint64_t addr, unsigned width,
              std::uint64_t &value) override;
    bool store(std::uint64_t cta, std::uint64_t addr,
               unsigned width) override;

    /** The run's CTA range with this resolver. */
    const sim::CtaSlice &slice() const { return slice_; }

    /** Did the run load at least one byte of a CTA outside it? */
    bool servedLoads() const { return served_loads_; }

    /**
     * CTAs outside the run whose golden reads touch a byte the run
     * stored, later than the CTA that stored it: they would execute
     * differently in the full grid, so the closure must include them.
     */
    std::vector<std::uint64_t> laterReaders() const;

    /**
     * Bytes in which the full-grid image after the run holds the run's
     * value rather than the golden one, given the run's chunk-granular
     * @p dirty set: (dirty u writes of the run's CTAs) minus bytes
     * CTAs outside the run write, plus those of them the run stored
     * after their writer ran.
     */
    sim::IntervalSet runBytes(sim::IntervalSet dirty) const;

  private:
    struct Store
    {
        sim::Interval bytes;
        std::uint64_t cta;
    };

    bool inRun(std::uint64_t cta) const;

    /** Did CTA @p first or a later one store the byte at @p addr? */
    bool storedSince(std::uint64_t addr, std::uint64_t first) const;

    const SlicingPlan &plan_;
    const sim::GlobalMemory &pristine_;
    SlicingPlan::Hazards owned_; ///< closure hazard sets
    const sim::IntervalSet *load_hazards_ = nullptr;
    const sim::IntervalSet *store_hazards_ = nullptr;
    sim::CtaSlice slice_;
    std::vector<Store> stores_; ///< in execution order
    bool served_loads_ = false;
};

} // namespace fsp::faults

#endif // FSP_FAULTS_SLICING_HH
