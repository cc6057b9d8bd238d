/**
 * @file
 * ProtectionPlan coverage predicate and canonical identity.
 */

#include "sim/protection.hh"

#include <algorithm>

#include "util/hash.hh"

namespace fsp::sim {

const char *
protectionSchemeName(ProtectionScheme scheme)
{
    return scheme == ProtectionScheme::DuplicateCompare
               ? "duplicate-compare"
               : "recompute";
}

void
ProtectionPlan::protectRange(std::uint64_t thread, std::uint64_t begin,
                             std::uint64_t end)
{
    if (begin >= end)
        return;
    ranges_[thread].push_back(ProtectedRange{begin, end});
    normalised_ = false;
}

void
ProtectionPlan::normalise() const
{
    if (normalised_)
        return;
    for (auto &[thread, ranges] : ranges_) {
        std::sort(ranges.begin(), ranges.end(),
                  [](const ProtectedRange &a, const ProtectedRange &b) {
                      return a.begin != b.begin ? a.begin < b.begin
                                                : a.end < b.end;
                  });
        std::vector<ProtectedRange> merged;
        for (const ProtectedRange &r : ranges) {
            if (!merged.empty() && r.begin <= merged.back().end)
                merged.back().end = std::max(merged.back().end, r.end);
            else
                merged.push_back(r);
        }
        ranges = std::move(merged);
    }
    normalised_ = true;
}

bool
ProtectionPlan::covers(std::uint64_t thread, std::uint64_t dynIndex,
                       FaultKind kind) const
{
    // Neither scheme reaches corruption outside the protected thread's
    // own dataflow: memory flips land in state other threads read, and
    // a skipped barrier corrupts the rendezvous itself.
    switch (kind) {
      case FaultKind::SharedMem:
      case FaultKind::GlobalMem:
      case FaultKind::GlobalMemLaunch:
      case FaultKind::BarrierSkip:
        return false;
      case FaultKind::PredState:
      case FaultKind::PcState:
        // Corrupted stored state only surfaces through the duplicated
        // re-execution; selective recomputation replays values, not
        // control state.
        if (scheme_ != ProtectionScheme::DuplicateCompare)
            return false;
        break;
      case FaultKind::DestReg:
      case FaultKind::DestRegStuck:
        break;
    }
    if (threads_.count(thread) != 0)
        return true;
    auto it = ranges_.find(thread);
    if (it == ranges_.end())
        return false;
    normalise();
    const std::vector<ProtectedRange> &ranges = it->second;
    auto pos = std::upper_bound(
        ranges.begin(), ranges.end(), dynIndex,
        [](std::uint64_t v, const ProtectedRange &r) { return v < r.begin; });
    return pos != ranges.begin() && dynIndex < std::prev(pos)->end;
}

std::size_t
ProtectionPlan::protectedThreadCount() const
{
    std::size_t count = threads_.size();
    for (const auto &[thread, ranges] : ranges_)
        if (threads_.count(thread) == 0)
            ++count;
    return count;
}

std::vector<std::uint64_t>
ProtectionPlan::protectedThreads() const
{
    std::vector<std::uint64_t> ids(threads_.begin(), threads_.end());
    for (const auto &[thread, ranges] : ranges_)
        if (threads_.count(thread) == 0)
            ids.push_back(thread);
    std::sort(ids.begin(), ids.end());
    return ids;
}

std::vector<ProtectedRange>
ProtectionPlan::rangesOf(std::uint64_t thread) const
{
    if (threads_.count(thread) != 0)
        return {};
    auto it = ranges_.find(thread);
    if (it == ranges_.end())
        return {};
    normalise();
    return it->second;
}

std::string
ProtectionPlan::identity() const
{
    normalise();
    std::string text =
        scheme_ == ProtectionScheme::DuplicateCompare ? "dup" : "recompute";
    for (std::uint64_t thread : protectedThreads()) {
        text += ';';
        text += std::to_string(thread);
        if (threads_.count(thread) != 0)
            continue;
        for (const ProtectedRange &r : ranges_.at(thread)) {
            text += ':';
            text += std::to_string(r.begin);
            text += '-';
            text += std::to_string(r.end);
        }
    }
    return text;
}

std::uint64_t
ProtectionPlan::identityHash() const
{
    return fnv1a64(identity());
}

} // namespace fsp::sim
