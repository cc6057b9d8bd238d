/**
 * @file
 * Internal execution helpers shared by the decoded dispatch engine
 * (executor.cc) and the reference per-step interpreter
 * (executor_ref.cc).
 *
 * Both engines drive the same scheduler, the same fault hooks and the
 * same arithmetic helpers against the same SoA MachineState -- the only
 * difference is how an instruction's operation and operands are
 * resolved (pre-decoded DecodedOp vs. per-step Instruction walk).
 * Keeping the arithmetic in one place is what makes "bit-identical by
 * construction" a meaningful claim; the differential suite
 * (tests/test_decoded_executor.cc) then verifies it end to end.
 *
 * This header is internal to fsp_sim: do not include it outside
 * src/sim.
 */

#ifndef FSP_SIM_EXEC_IMPL_HH
#define FSP_SIM_EXEC_IMPL_HH

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/decoded.hh"
#include "sim/executor.hh"
#include "sim/fault.hh"
#include "sim/protection.hh"
#include "sim/machine_state.hh"
#include "sim/memory.hh"
#include "sim/program.hh"
#include "sim/trace.hh"
#include "util/logging.hh"

namespace fsp::sim::exec {

inline constexpr std::uint64_t kDefaultBudget = 50'000'000;

/** Zero-extend truncation to @p bits. */
inline std::uint64_t
truncVal(std::uint64_t v, unsigned bits)
{
    return bits >= 64 ? v : (v & ((std::uint64_t{1} << bits) - 1));
}

/** Sign extension of the low @p bits of @p v. */
inline std::int64_t
signExt(std::uint64_t v, unsigned bits)
{
    if (bits >= 64)
        return static_cast<std::int64_t>(v);
    std::uint64_t m = std::uint64_t{1} << (bits - 1);
    std::uint64_t t = truncVal(v, bits);
    return static_cast<std::int64_t>((t ^ m) - m);
}

inline float
asF32(std::uint64_t raw)
{
    return std::bit_cast<float>(static_cast<std::uint32_t>(raw));
}

inline std::uint64_t
fromF32(float v)
{
    return std::bit_cast<std::uint32_t>(v);
}

inline double
asF64(std::uint64_t raw)
{
    return std::bit_cast<double>(raw);
}

inline std::uint64_t
fromF64(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** Why a thread stopped running in the current scheduling slice. */
enum class StopReason : std::uint8_t
{
    Exited,
    Barrier,
    Limit, ///< per-call step limit reached (stepCta watermark)
    Crashed,
    Hung,
    Hazard, ///< a sliced run's hazard access went unresolved
};

/** Mutable context shared by every thread while one CTA executes. */
struct CtaContext
{
    GlobalMemory &gmem;
    const ParamBuffer &params;
    SharedMemory *smem = nullptr; ///< the current CTA's scratchpad
    const Program *prog = nullptr;
    const DecodedProgram *dec = nullptr;
    Dim3 block{};
    Dim3 grid{}; ///< %nctaid reads in the reference engine
    std::uint64_t blockThreads = 0;
    std::uint32_t ctaidX = 0, ctaidY = 0, ctaidZ = 0;
    std::uint64_t budget = kDefaultBudget;
    const TraceOptions *opts = nullptr;
    FaultPlan *fault = nullptr;
    const ProtectionPlan *protection = nullptr;
    TraceData *trace = nullptr;
    std::string diagnostic{};

    /** Sliced-run resolver and its hazard sets (null outside sliced
     *  injection runs). */
    SliceResolver *resolver = nullptr;
    const IntervalSet *loadHazards = nullptr;
    const IntervalSet *storeHazards = nullptr;

    /** Footprint accumulators for the current CTA (null when off). */
    std::vector<Interval> *fpReads = nullptr;
    std::vector<Interval> *fpWrites = nullptr;
};

/**
 * The sliced-run discipline of a completed global load of @p width
 * bytes at @p addr by CTA @p cta: a load touching the resolver's
 * hazard set gets its value from the resolver.  Both engines route
 * every global load through here.
 *
 * @return false when the run must stop with StopReason::Hazard.
 */
[[gnu::always_inline]] inline bool
sliceLoad(CtaContext &ctx, std::uint64_t cta, std::uint64_t addr,
          unsigned width, std::uint64_t &value)
{
    if (ctx.loadHazards == nullptr ||
        !ctx.loadHazards->intersectsRange(addr, addr + width)) [[likely]]
        return true;
    return ctx.resolver->load(cta, addr, width, value);
}

/** As sliceLoad, for a completed global store. */
[[gnu::always_inline]] inline bool
sliceStore(CtaContext &ctx, std::uint64_t cta, std::uint64_t addr,
           unsigned width)
{
    if (ctx.storeHazards == nullptr ||
        !ctx.storeHazards->intersectsRange(addr, addr + width)) [[likely]]
        return true;
    return ctx.resolver->store(cta, addr, width);
}

/** Condition-code flags derived from a result value of @p type. */
inline std::uint8_t
ccFromValue(std::uint64_t raw, DataType type)
{
    std::uint8_t cc = 0;
    if (isFloatType(type)) {
        double v = type == DataType::F32 ? asF32(raw) : asF64(raw);
        if (v == 0.0)
            cc |= CcZero;
        if (std::signbit(v))
            cc |= CcSign;
    } else {
        unsigned bits = typeBits(type);
        if (truncVal(raw, bits) == 0)
            cc |= CcZero;
        if (signExt(raw, bits) < 0)
            cc |= CcSign;
    }
    return cc;
}

/** Evaluate a guard condition against a thread's CC registers. */
inline bool
guardCcPasses(GuardCond cond, unsigned pred, const std::uint8_t *ccs)
{
    if (cond == GuardCond::Always)
        return true;
    std::uint8_t cc = ccs[pred];
    bool zero = cc & CcZero;
    bool sign = cc & CcSign;
    switch (cond) {
      case GuardCond::Eq: return zero;
      case GuardCond::Ne: return !zero;
      case GuardCond::Lt: return sign;
      case GuardCond::Le: return sign || zero;
      case GuardCond::Gt: return !sign && !zero;
      case GuardCond::Ge: return !sign;
      case GuardCond::Always: return true;
    }
    panic("unreachable GuardCond");
}

/** Comparison on raw values per @p type (set/setp).  Inline: the
 * decoded SetCmp case calls this per dynamic set/setp. */
inline bool
compareValues(CmpOp cmp, std::uint64_t a, std::uint64_t b, DataType type)
{
    if (isFloatType(type)) {
        double fa = type == DataType::F32 ? asF32(a) : asF64(a);
        double fb = type == DataType::F32 ? asF32(b) : asF64(b);
        switch (cmp) {
          case CmpOp::Eq: return fa == fb;
          case CmpOp::Ne: return fa != fb;
          case CmpOp::Lt: return fa < fb;
          case CmpOp::Le: return fa <= fb;
          case CmpOp::Gt: return fa > fb;
          case CmpOp::Ge: return fa >= fb;
          case CmpOp::None: break;
        }
        panic("set/setp without comparison");
    }
    unsigned bits = typeBits(type);
    if (isSignedType(type)) {
        std::int64_t sa = signExt(a, bits);
        std::int64_t sb = signExt(b, bits);
        switch (cmp) {
          case CmpOp::Eq: return sa == sb;
          case CmpOp::Ne: return sa != sb;
          case CmpOp::Lt: return sa < sb;
          case CmpOp::Le: return sa <= sb;
          case CmpOp::Gt: return sa > sb;
          case CmpOp::Ge: return sa >= sb;
          case CmpOp::None: break;
        }
        panic("set/setp without comparison");
    }
    std::uint64_t ua = truncVal(a, bits);
    std::uint64_t ub = truncVal(b, bits);
    switch (cmp) {
      case CmpOp::Eq: return ua == ub;
      case CmpOp::Ne: return ua != ub;
      case CmpOp::Lt: return ua < ub;
      case CmpOp::Le: return ua <= ub;
      case CmpOp::Gt: return ua > ub;
      case CmpOp::Ge: return ua >= ub;
      case CmpOp::None: break;
    }
    panic("set/setp without comparison");
}

/** ALU evaluation for two/three-operand ops; returns the raw result. */
std::uint64_t evalAluOp(Opcode op, DataType t, std::uint64_t a,
                        std::uint64_t b, std::uint64_t c);

/** cvt semantics: read as @p st, convert to @p dt, return raw bits. */
std::uint64_t evalCvtTyped(DataType st, DataType dt, std::uint64_t raw);

/** Record a plan's first application and its static instruction. */
inline void
noteApplied(FaultPlan &fault, std::uint32_t static_index)
{
    if (!fault.applied) {
        fault.applied = true;
        fault.appliedStatic = static_index;
    }
}

/** Record a plan's first suppressed-by-protection detection. */
inline void
noteDetected(FaultPlan &fault, std::uint32_t static_index)
{
    if (!fault.detected) {
        fault.detected = true;
        fault.detectedStatic = static_index;
    }
}

/**
 * Corrupt a just-written destination value per the plan.  Covers the
 * transient XOR model (DestReg, the paper's default) and the stuck-at
 * variants (DestRegStuck); mask bits outside the destination's
 * recorded width never take effect, so a plan targeting a wider value
 * than the instruction produced stays un-applied exactly as the
 * original single-bit engine behaved.
 *
 * @return true when the value was corrupted (callers then writeback
 *         and mark the plan applied).
 */
inline bool
corruptDest(std::uint64_t &value, const FaultPlan &fault,
            std::uint64_t dyn_index, unsigned recorded_bits)
{
    const std::uint64_t width_mask =
        recorded_bits >= 64
            ? ~std::uint64_t{0}
            : ((std::uint64_t{1} << recorded_bits) - 1);
    const std::uint64_t mask = fault.mask & width_mask;
    if (mask == 0)
        return false;
    if (fault.kind == FaultKind::DestReg) {
        if (dyn_index != fault.dynIndex)
            return false;
        value ^= mask;
        return true;
    }
    // DestRegStuck: active from dynIndex onward; a non-zero period
    // alternates active/idle windows (deterministic intermittency).
    if (dyn_index < fault.dynIndex)
        return false;
    if (fault.period != 0 &&
        (((dyn_index - fault.dynIndex) / fault.period) & 1) != 0) {
        return false;
    }
    value = (value & ~mask) | (fault.stuckValue & mask);
    return true;
}

/** Does this plan corrupt destination writebacks? */
inline bool
isDestKind(FaultKind kind)
{
    return kind == FaultKind::DestReg || kind == FaultKind::DestRegStuck;
}

/**
 * Corrupt-or-detect for a just-written destination value: the single
 * hook both engines call from every writeback site.  When the plan is
 * not a destination kind or would not fire here, nothing happens.
 * When it fires under protection coverage the corruption is suppressed
 * and recorded as a detection (the value stays golden); otherwise the
 * corruption commits and is recorded as applied.
 *
 * @return true when @p value was actually corrupted.
 */
inline bool
applyDestFault(std::uint64_t &value, CtaContext &ctx,
               std::uint64_t dyn_index, unsigned recorded_bits,
               std::uint32_t static_index)
{
    FaultPlan &fault = *ctx.fault;
    if (!isDestKind(fault.kind))
        return false;
    std::uint64_t probe = value;
    if (!corruptDest(probe, fault, dyn_index, recorded_bits))
        return false;
    if (ctx.protection != nullptr &&
        ctx.protection->covers(fault.thread, dyn_index, fault.kind)) {
        noteDetected(fault, static_index);
        return false;
    }
    value = probe;
    noteApplied(fault, static_index);
    return true;
}

/**
 * Apply a reach-time fault: architectural state corrupted when the
 * target thread arrives at its target dynamic instruction, before
 * executing it (PredState, PcState, SharedMem, GlobalMem).  Other
 * kinds fall through untouched -- in particular BarrierSkip, which is
 * consumed at the next Bar instruction instead.
 *
 * Operates on the caller's (possibly local-cached) pc and the thread's
 * CC slab so both engines share it verbatim.
 *
 * @return true when the interpreter loop must stop with @p halt (a
 *         crash on an unmapped flip address, or a sliced-run hazard
 *         when the flipped global byte is shared with other CTAs).
 */
bool applyReachFault(CtaContext &ctx, std::uint64_t &pc,
                     std::uint8_t *ccs, std::uint64_t global_id,
                     std::size_t code_size, StopReason &halt);

/**
 * Per-thread interpreter slices.  Each runs thread @p tl of @p ms until
 * it exits, reaches a barrier, crashes, exceeds its budget, or has
 * executed @p max_steps instructions in this call.  The decoded variant
 * drives the pre-decoded dispatch loop; the reference variant re-walks
 * the original Instruction stream each step (the differential oracle).
 */
StopReason runThreadDecoded(MachineState &ms, std::uint32_t tl,
                            CtaContext &ctx, std::uint64_t max_steps);
StopReason runThreadReference(MachineState &ms, std::uint32_t tl,
                              CtaContext &ctx, std::uint64_t max_steps);

} // namespace fsp::sim::exec

#endif // FSP_SIM_EXEC_IMPL_HH
