/**
 * @file
 * Trace sectioning (see section.hh for the invariance contract).
 */

#include "sim/section.hh"

#include <algorithm>

#include "util/hash.hh"
#include "util/logging.hh"

namespace fsp::sim {

namespace {

void
hashOperand(Fnv1a64 &hasher, const Operand &operand)
{
    hasher.update(static_cast<std::uint64_t>(operand.kind));
    hasher.update(operand.reg);
    hasher.update(static_cast<std::uint64_t>(operand.half));
    hasher.update(operand.negated ? 1 : 0);
    hasher.update(static_cast<std::uint64_t>(operand.special));
    hasher.update(operand.imm);
    hasher.update(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(operand.memBase)));
    hasher.update(static_cast<std::uint64_t>(operand.memOffset));
}

/** Order-preserving combine of two 64-bit hashes. */
std::uint64_t
combine(std::uint64_t a, std::uint64_t b)
{
    Fnv1a64 hasher;
    hasher.update(a);
    hasher.update(b);
    return hasher.digest();
}

/** Sentinel folded into the last section's tail hash. */
constexpr std::uint64_t kTailSeed = 0x7461696c2d656e64ULL; // "tail-end"

} // namespace

std::uint64_t
instructionContentHash(const Instruction &insn, std::uint32_t staticIndex)
{
    Fnv1a64 hasher;
    hasher.update(static_cast<std::uint64_t>(insn.op));
    hasher.update(static_cast<std::uint64_t>(insn.type));
    hasher.update(static_cast<std::uint64_t>(insn.stype));
    hasher.update(static_cast<std::uint64_t>(insn.cmp));
    hasher.update(static_cast<std::uint64_t>(insn.space));
    hasher.update(static_cast<std::uint64_t>(insn.guard.cond));
    hasher.update(insn.guard.pred);
    hashOperand(hasher, insn.dest);
    hashOperand(hasher, insn.dest2);
    for (const Operand &src : insn.src)
        hashOperand(hasher, src);
    hasher.update(insn.barrier);
    // Branch targets are hashed relative to the instruction itself so
    // the hash survives insertions elsewhere in the program.  -1 (no
    // target) stays -1 under the subtraction's sentinel below.
    const std::int64_t relative =
        insn.target < 0 ? std::int64_t{-1}
                        : std::int64_t{insn.target} -
                              std::int64_t{staticIndex};
    hasher.update(static_cast<std::uint64_t>(relative));
    return hasher.digest();
}

SectionedTrace
splitTrace(const std::vector<Instruction> &code,
           const std::vector<DynRecord> &trace,
           const SectionSplitOptions &options)
{
    SectionedTrace result;
    if (trace.empty())
        return result;

    const std::size_t stride =
        options.maxExecutedRecords == 0 ? std::size_t{1}
                                        : options.maxExecutedRecords;

    std::vector<std::uint64_t> boundaries = options.extraBoundaries;
    std::sort(boundaries.begin(), boundaries.end());
    boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                     boundaries.end());

    result.sectionOf.resize(trace.size(), 0);
    result.writeOffsetOf.resize(trace.size(), 0);

    // Single forward pass: place cuts (only ever *before an executed
    // record* or after an executed barrier, so guard-failed issues can
    // never move a boundary), folding content / prefix-state hashes as
    // we go.  Tail hashes are rolled up backwards afterwards.
    Fnv1a64 prefix_state; // fold over all executed dest-writes seen so far
    std::uint64_t executed_total = 0;  // executed records consumed
    std::size_t executed_in_section = 0;
    std::size_t next_boundary = 0;     // index into boundaries[]
    std::uint32_t write_offset = 0;    // executed dest-writes in section
    bool any_executed = false;

    Fnv1a64 content;
    TraceSection current;
    current.firstRecord = 0;
    current.prefixStateHash = prefix_state.digest();

    auto close_section = [&](std::uint32_t end_record) {
        current.recordCount = end_record - current.firstRecord;
        current.contentHash = content.digest();
        result.sections.push_back(current);
        content = Fnv1a64{};
        current = TraceSection{};
        current.firstRecord = end_record;
        current.prefixStateHash = prefix_state.digest();
        executed_in_section = 0;
        write_offset = 0;
    };

    for (std::size_t i = 0; i < trace.size(); ++i) {
        const DynRecord &record = trace[i];
        FSP_ASSERT(record.staticIndex < code.size(),
                   "dyn record static index out of range");
        const Instruction &insn = code[record.staticIndex];
        const bool executed = record.executed();

        if (executed && current.firstRecord != i) {
            // Cut before this record when it crosses a stride or an
            // extra boundary (both counted in executed-record space).
            bool cut = executed_in_section >= stride;
            while (next_boundary < boundaries.size() &&
                   boundaries[next_boundary] <= executed_total) {
                if (boundaries[next_boundary] == executed_total)
                    cut = true;
                ++next_boundary;
            }
            if (cut)
                close_section(static_cast<std::uint32_t>(i));
        }

        result.sectionOf[i] =
            static_cast<std::uint32_t>(result.sections.size());
        if (executed) {
            any_executed = true;
            content.update(
                instructionContentHash(insn, record.staticIndex));
            ++executed_in_section;
            ++executed_total;
            if (record.destBits != 0) {
                result.writeOffsetOf[i] = write_offset++;
                prefix_state.update(
                    static_cast<std::uint64_t>(insn.dest.kind));
                prefix_state.update(insn.dest.reg);
                prefix_state.update(record.value());
            }
            if (insn.op == Opcode::Bar && i + 1 < trace.size())
                close_section(static_cast<std::uint32_t>(i + 1));
        }
    }
    close_section(static_cast<std::uint32_t>(trace.size()));

    FSP_ASSERT(any_executed,
               "splitTrace needs a recordValues trace (no executed "
               "flags found)");

    // tail[i] = H(content[i], tail[i+1]); the fold direction makes a
    // change in any section at or after i visible in tail[i].
    std::uint64_t tail = kTailSeed;
    for (std::size_t i = result.sections.size(); i-- > 0;) {
        tail = combine(result.sections[i].contentHash, tail);
        result.sections[i].tailContentHash = tail;
    }
    return result;
}

} // namespace fsp::sim
