/**
 * @file
 * CTA-independence analysis implementation.
 *
 * All checks are byte-exact interval algebra over the golden
 * footprints.  The per-CTA hazard sets are derived from three global
 * aggregates (all writes, all reads, multiply-read bytes) so the cost
 * stays linear in the total number of footprint ranges rather than
 * quadratic in the CTA count:
 *
 *   loadHazards(c)  = allWrites \ writes(c)
 *   readsOfOthers(c) = allReads \ (reads(c) \ sharedReads)
 *   storeHazards(c) = loadHazards(c) u readsOfOthers(c)
 *
 * where sharedReads is the set of bytes read by two or more CTAs
 * (a byte read only by c is exactly a byte of reads(c) \ sharedReads).
 */

#include "faults/slicing.hh"

#include <algorithm>
#include <cstdio>

#include "util/logging.hh"

namespace fsp::faults {

namespace {

using sim::Interval;
using sim::IntervalSet;

/** An interval tagged with its owning CTA. */
struct OwnedInterval
{
    Interval iv;
    std::uint64_t owner;
};

/** Format an "owner A vs owner B at 0x..." collision description. */
std::string
collisionText(const char *kind, std::uint64_t a, std::uint64_t b,
              std::uint64_t addr)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s: CTA %llu vs CTA %llu at 0x%llx",
                  kind, static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(addr));
    return buf;
}

/** Collect every CTA's intervals of one footprint side, tagged. */
std::vector<OwnedInterval>
collectOwned(const std::vector<sim::CtaFootprint> &footprints,
             bool writes)
{
    std::vector<OwnedInterval> owned;
    for (std::uint64_t cta = 0; cta < footprints.size(); ++cta) {
        const IntervalSet &set =
            writes ? footprints[cta].writes : footprints[cta].reads;
        for (const Interval &iv : set.ranges())
            owned.push_back({iv, cta});
    }
    std::sort(owned.begin(), owned.end(),
              [](const OwnedInterval &a, const OwnedInterval &b) {
                  return a.iv.begin < b.iv.begin;
              });
    return owned;
}

/**
 * Find a pair of overlapping intervals with distinct owners in a
 * begin-sorted list.  Tracks the two farthest-reaching open intervals
 * with distinct owners, which is sufficient: any cross-owner overlap
 * involves the current interval and one of those two.
 *
 * @return true and fills @p out when a collision exists.
 */
bool
findCrossOwnerOverlap(const std::vector<OwnedInterval> &sorted,
                      std::pair<std::uint64_t, std::uint64_t> &owners,
                      std::uint64_t &addr)
{
    std::uint64_t max_end1 = 0, owner1 = 0; // farthest end seen
    std::uint64_t max_end2 = 0, owner2 = 0; // farthest with other owner
    bool have1 = false, have2 = false;

    for (const OwnedInterval &cur : sorted) {
        if (have1 && cur.iv.begin < max_end1 && owner1 != cur.owner) {
            owners = {owner1, cur.owner};
            addr = cur.iv.begin;
            return true;
        }
        if (have2 && cur.iv.begin < max_end2 && owner2 != cur.owner) {
            owners = {owner2, cur.owner};
            addr = cur.iv.begin;
            return true;
        }
        if (!have1 || cur.iv.end > max_end1) {
            if (have1 && owner1 != cur.owner &&
                (!have2 || max_end1 > max_end2)) {
                max_end2 = max_end1;
                owner2 = owner1;
                have2 = true;
            }
            max_end1 = cur.iv.end;
            owner1 = cur.owner;
            have1 = true;
        } else if (cur.owner != owner1 &&
                   (!have2 || cur.iv.end > max_end2)) {
            max_end2 = cur.iv.end;
            owner2 = cur.owner;
            have2 = true;
        }
    }
    return false;
}

/** Bytes covered by two or more of the (per-owner disjoint) sets. */
IntervalSet
multiplyCovered(const std::vector<OwnedInterval> &sorted)
{
    // Event sweep: +1 at begin, -1 at end; emit where coverage >= 2.
    std::vector<std::pair<std::uint64_t, int>> events;
    events.reserve(2 * sorted.size());
    for (const OwnedInterval &o : sorted) {
        events.emplace_back(o.iv.begin, +1);
        events.emplace_back(o.iv.end, -1);
    }
    std::sort(events.begin(), events.end());

    IntervalSet shared;
    int coverage = 0;
    std::uint64_t open = 0;
    for (const auto &[pos, delta] : events) {
        int next = coverage + delta;
        if (coverage < 2 && next >= 2)
            open = pos;
        else if (coverage >= 2 && next < 2)
            shared.add(open, pos);
        coverage = next;
    }
    return shared;
}

} // namespace

SlicingPlan
SlicingPlan::analyze(std::vector<sim::CtaFootprint> footprints,
                     const sim::GlobalMemory &goldenFinal)
{
    SlicingPlan plan;
    plan.footprints_ = std::move(footprints);
    const std::size_t n = plan.footprints_.size();

    if (n <= 1) {
        plan.reason_ = "single-CTA launch (nothing to slice)";
        return plan;
    }

    // (a) No two CTAs may write a common byte: write-write overlap
    // makes the final value order-dependent and byte ownership
    // ambiguous.
    auto writes = collectOwned(plan.footprints_, /*writes=*/true);
    std::pair<std::uint64_t, std::uint64_t> owners;
    std::uint64_t addr = 0;
    if (findCrossOwnerOverlap(writes, owners, addr)) {
        plan.reason_ = collisionText("write-write overlap", owners.first,
                                     owners.second, addr);
        return plan;
    }

    // (b) No CTA may read a byte another CTA writes (cross-CTA
    // communication through global memory).  Writes are globally
    // disjoint here, so a sorted scan against each read suffices.
    auto reads = collectOwned(plan.footprints_, /*writes=*/false);
    for (const OwnedInterval &r : reads) {
        auto it = std::upper_bound(
            writes.begin(), writes.end(), r.iv.begin,
            [](std::uint64_t v, const OwnedInterval &w) {
                return v < w.iv.end;
            });
        for (; it != writes.end() && it->iv.begin < r.iv.end; ++it) {
            if (it->owner != r.owner) {
                plan.reason_ =
                    collisionText("cross-CTA read-after-write", r.owner,
                                  it->owner, std::max(r.iv.begin,
                                                      it->iv.begin));
                return plan;
            }
        }
    }

    plan.independent_ = true;
    plan.reason_ = "cta-independent";

    // The write map: writes are disjoint here, so the begin-sorted
    // owner-tagged list answers "who writes this byte" by bisection.
    plan.write_map_.reserve(writes.size());
    std::size_t offset = 0;
    for (const OwnedInterval &w : writes) {
        plan.write_map_.push_back(
            {w.iv.begin, w.iv.end, w.owner, offset});
        offset += w.iv.bytes();
    }
    plan.golden_final_.resize(offset);
    for (const OwnedWrite &w : plan.write_map_)
        goldenFinal.readBytes(w.begin, w.end - w.begin,
                              plan.golden_final_.data() + w.offset);

    // Hazard sets, from three global aggregates.
    IntervalSet &all_writes = plan.all_writes_;
    for (const auto &fp : plan.footprints_)
        all_writes.unionWith(fp.writes);
    IntervalSet all_reads;
    for (const auto &fp : plan.footprints_)
        all_reads.unionWith(fp.reads);
    IntervalSet shared_reads = multiplyCovered(reads);

    plan.load_hazards_.reserve(n);
    plan.store_hazards_.reserve(n);
    for (std::size_t cta = 0; cta < n; ++cta) {
        plan.load_hazards_.push_back(
            all_writes.subtract(plan.footprints_[cta].writes));

        IntervalSet exclusive_reads =
            plan.footprints_[cta].reads.subtract(shared_reads);
        IntervalSet reads_of_others = all_reads.subtract(exclusive_reads);
        reads_of_others.unionWith(plan.load_hazards_.back());
        plan.store_hazards_.push_back(std::move(reads_of_others));
    }
    return plan;
}

SlicingPlan::Hazards
SlicingPlan::hazardsOutside(const std::vector<std::uint64_t> &ctas) const
{
    Hazards hazards;
    hazards.loads = all_writes_;
    std::vector<Interval> outside_reads;
    std::size_t next = 0;
    for (std::uint64_t cta = 0; cta < footprints_.size(); ++cta) {
        if (next < ctas.size() && ctas[next] == cta) {
            hazards.loads = hazards.loads.subtract(footprints_[cta].writes);
            ++next;
            continue;
        }
        const auto &reads = footprints_[cta].reads.ranges();
        outside_reads.insert(outside_reads.end(), reads.begin(),
                             reads.end());
    }
    hazards.stores = IntervalSet::fromUnsorted(std::move(outside_reads));
    hazards.stores.unionWith(hazards.loads);
    return hazards;
}

const SlicingPlan::OwnedWrite *
SlicingPlan::writerOf(std::uint64_t addr) const
{
    auto it = std::upper_bound(
        write_map_.begin(), write_map_.end(), addr,
        [](std::uint64_t a, const OwnedWrite &w) { return a < w.end; });
    return it != write_map_.end() && it->begin <= addr ? &*it : nullptr;
}

namespace {

/** Logged stores past this many make the resolver give up. */
constexpr std::size_t kMaxLoggedStores = 4096;

} // namespace

HazardResolver::HazardResolver(const SlicingPlan &plan,
                               const sim::GlobalMemory &pristine,
                               std::vector<std::uint64_t> ctas)
    : plan_(plan), pristine_(pristine)
{
    FSP_ASSERT(plan.independent(),
               "hazard resolution needs an independent plan");
    slice_.range.ctas = std::move(ctas);
    slice_.resolver = this;
    const auto &run = slice_.range.ctas;
    if (run.size() == 1) {
        load_hazards_ = &plan.loadHazards(run.front());
        store_hazards_ = &plan.storeHazards(run.front());
    } else {
        owned_ = plan.hazardsOutside(run);
        load_hazards_ = &owned_.loads;
        store_hazards_ = &owned_.stores;
    }
}

bool
HazardResolver::inRun(std::uint64_t cta) const
{
    return std::binary_search(slice_.range.ctas.begin(),
                              slice_.range.ctas.end(), cta);
}

bool
HazardResolver::storedSince(std::uint64_t addr, std::uint64_t first) const
{
    for (const Store &s : stores_) {
        if (s.cta >= first && addr >= s.bytes.begin && addr < s.bytes.end)
            return true;
    }
    return false;
}

bool
HazardResolver::load(std::uint64_t cta, std::uint64_t addr,
                     unsigned width, std::uint64_t &value)
{
    served_loads_ = true;
    for (unsigned i = 0; i < width; ++i) {
        const std::uint64_t byte_addr = addr + i;
        const SlicingPlan::OwnedWrite *w = plan_.writerOf(byte_addr);
        if (w == nullptr || inRun(w->cta))
            continue; // the run's own image is exact here
        // CTAs run in increasing order: the run's own store stands
        // unless the golden writer ran after it.
        if (storedSince(byte_addr, w->cta > cta ? 0 : w->cta + 1))
            continue;
        std::uint8_t byte = 0;
        if (w->cta < cta)
            byte = plan_.goldenFinal(*w, byte_addr);
        else
            pristine_.readBytes(byte_addr, 1, &byte);
        const unsigned shift = 8 * i;
        value = (value & ~(std::uint64_t{0xFF} << shift)) |
                (std::uint64_t{byte} << shift);
    }
    return true;
}

bool
HazardResolver::store(std::uint64_t cta, std::uint64_t addr,
                      unsigned width)
{
    if (stores_.size() >= kMaxLoggedStores)
        return false;
    stores_.push_back({{addr, addr + width}, cta});
    return true;
}

std::vector<std::uint64_t>
HazardResolver::laterReaders() const
{
    std::vector<std::uint64_t> readers;
    if (stores_.empty())
        return readers;
    std::vector<Interval> raw;
    raw.reserve(stores_.size());
    for (const Store &s : stores_)
        raw.push_back(s.bytes);
    const IntervalSet stored = IntervalSet::fromUnsorted(std::move(raw));
    // Readers at or before the first storing CTA read golden bytes.
    for (std::uint64_t cta = stores_.front().cta + 1;
         cta < plan_.ctaCount(); ++cta) {
        if (!inRun(cta) && plan_.footprint(cta).reads.intersects(stored))
            readers.push_back(cta);
    }
    return readers;
}

IntervalSet
HazardResolver::runBytes(IntervalSet dirty) const
{
    for (std::uint64_t cta : slice_.range.ctas)
        dirty.unionWith(plan_.writes(cta));
    IntervalSet bytes = dirty.subtract(*load_hazards_);

    std::vector<Interval> kept;
    for (const Store &s : stores_) {
        for (std::uint64_t a = s.bytes.begin; a < s.bytes.end; ++a) {
            const SlicingPlan::OwnedWrite *w = plan_.writerOf(a);
            if (w != nullptr && !inRun(w->cta) && s.cta > w->cta)
                kept.push_back({a, a + 1});
        }
    }
    bytes.unionWith(IntervalSet::fromUnsorted(std::move(kept)));
    return bytes;
}

} // namespace fsp::faults
